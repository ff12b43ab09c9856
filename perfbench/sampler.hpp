// Instruments of the traced run: a counting global operator new and a
// CPU-time stack sampler. Both are inert until switched on, so an untraced
// run pays one relaxed load per allocation and nothing else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// ---- counting operator new (this binary replaces the global one) ----
void set_alloc_counting(bool on);
// Allocations made while counting was on, from any thread.
std::uint64_t alloc_count();

// ---- stack sampler ----
// An ITIMER_PROF timer raises SIGPROF as the process consumes CPU time; the
// kernel delivers it to the thread that was running, whose handler records
// that thread's call stack. Samples accumulate across start()/stop() pairs.
constexpr int kMaxFrames = 64;

struct StackSample {
  int depth = 0;
  // Innermost first. pcs[0] is the interrupted instruction; the rest are
  // return addresses.
  std::uintptr_t pcs[kMaxFrames];
};

// Where the main executable is mapped, so frames can be told apart from
// shared-library frames and turned into addresses addr2line understands.
struct ExeText {
  std::uintptr_t bias = 0;  // runtime address = file address + bias
  std::uintptr_t lo = 0;    // executable segment, runtime addresses
  std::uintptr_t hi = 0;
};

// Installs the SIGPROF handler and reserves `capacity` sample slots.
void sampler_init(std::size_t capacity);
void sampler_start();
void sampler_stop();
std::size_t sampler_count();
// Signals that found every slot taken.
std::uint64_t sampler_dropped();
// Samples whose unwind did not reach the interrupted frame; they keep only
// the interrupted instruction.
std::uint64_t sampler_unwind_misses();
const StackSample& sampler_sample(std::size_t i);
ExeText exe_text();

}  // namespace perfbench

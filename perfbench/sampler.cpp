#include "sampler.hpp"

#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>

namespace perfbench {

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void note_alloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void set_alloc_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }
std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace perfbench

// The standard routes the array and nothrow forms through these, so
// replacing them counts every allocation made through operator new.
void* operator new(std::size_t n) {
  perfbench::note_alloc();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t n, std::align_val_t al) {
  perfbench::note_alloc();
  std::size_t align = static_cast<std::size_t>(al);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n == 0 ? 1 : n) != 0) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace perfbench {

namespace {

std::atomic<bool> g_sampling{false};
std::unique_ptr<StackSample[]> g_samples;
std::size_t g_capacity = 0;
std::atomic<std::size_t> g_next{0};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<std::uint64_t> g_misses{0};

std::uintptr_t interrupted_pc(const void* ctx) {
  const auto* uc = static_cast<const ucontext_t*>(ctx);
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "perfbench sampler: unsupported architecture"
#endif
}

// Runs on whichever thread consumed the CPU tick. glibc's backtrace() does
// not allocate once it has been called before (sampler_init does that), and
// the slot index comes from an atomic counter, so concurrent handlers on the
// shard worker threads never share a slot.
void on_sigprof(int, siginfo_t*, void* ctx) {
  if (!g_sampling.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;
  const std::size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i >= g_capacity) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  const std::uintptr_t pc = interrupted_pc(ctx);
  // The handler's own frame and the signal trampoline come first; the
  // unwinder reports the interrupted frame at its exact pc.
  void* raw[kMaxFrames + 8];
  const int n = backtrace(raw, kMaxFrames + 8);
  StackSample& s = g_samples[i];
  int start = -1;
  for (int k = 0; k < n; ++k) {
    if (reinterpret_cast<std::uintptr_t>(raw[k]) == pc) {
      start = k;
      break;
    }
  }
  if (start < 0) {
    g_misses.fetch_add(1, std::memory_order_relaxed);
    s.pcs[0] = pc;
    s.depth = 1;
  } else {
    int d = 0;
    for (int k = start; k < n && d < kMaxFrames; ++k) {
      s.pcs[d++] = reinterpret_cast<std::uintptr_t>(raw[k]);
    }
    s.depth = d;
  }
  errno = saved_errno;
}

int find_exe_text(dl_phdr_info* info, std::size_t, void* out) {
  // The first object reported is the main program.
  auto* text = static_cast<ExeText*>(out);
  text->bias = info->dlpi_addr;
  for (int k = 0; k < info->dlpi_phnum; ++k) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[k];
    if (ph.p_type == PT_LOAD && (ph.p_flags & PF_X) != 0) {
      text->lo = info->dlpi_addr + ph.p_vaddr;
      text->hi = text->lo + ph.p_memsz;
    }
  }
  return 1;
}

void set_timer(long usec) {
  itimerval tv{};
  tv.it_interval.tv_usec = usec;
  tv.it_value.tv_usec = usec;
  if (setitimer(ITIMER_PROF, &tv, nullptr) != 0) {
    throw std::runtime_error("setitimer(ITIMER_PROF) failed");
  }
}

}  // namespace

void sampler_init(std::size_t capacity) {
  g_samples = std::make_unique<StackSample[]>(capacity);
  g_capacity = capacity;
  void* warm[4];
  backtrace(warm, 4);  // loads the unwinder outside the signal handler
  struct sigaction sa{};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) {
    throw std::runtime_error("sigaction(SIGPROF) failed");
  }
}

void sampler_start() {
  g_sampling.store(true, std::memory_order_relaxed);
  set_timer(1000);  // the kernel rounds this up to its tick
}

void sampler_stop() {
  set_timer(0);
  g_sampling.store(false, std::memory_order_relaxed);
}

std::size_t sampler_count() {
  const std::size_t n = g_next.load(std::memory_order_relaxed);
  return n < g_capacity ? n : g_capacity;
}

std::uint64_t sampler_dropped() { return g_dropped.load(std::memory_order_relaxed); }
std::uint64_t sampler_unwind_misses() { return g_misses.load(std::memory_order_relaxed); }
const StackSample& sampler_sample(std::size_t i) { return g_samples[i]; }

ExeText exe_text() {
  ExeText text;
  dl_iterate_phdr(find_exe_text, &text);
  return text;
}

}  // namespace perfbench

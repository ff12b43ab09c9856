#include "sim/engine.hpp"

#include "core/assert.hpp"

namespace nicwarp::sim {

void Engine::schedule(SimTime delay, Target& target, std::uint64_t arg) {
  NW_CHECK_MSG(delay.ns >= 0, "negative delay");
  push(now_ + delay, &target, arg);
}

void Engine::schedule_at(SimTime when, Target& target, std::uint64_t arg) {
  push(when, &target, arg);
}

void Engine::schedule(SimTime delay, Callback fn) {
  NW_CHECK_MSG(delay.ns >= 0, "negative delay");
  schedule_at(now_ + delay, std::move(fn));
}

void Engine::schedule_at(SimTime when, Callback fn) {
  NW_CHECK(static_cast<bool>(fn));
  std::uint32_t idx = 0;
  if (!free_callbacks_.empty()) {
    idx = free_callbacks_.back();
    free_callbacks_.pop_back();
    callbacks_[idx] = std::move(fn);
  } else {
    NW_CHECK_MSG(callbacks_.size() < static_cast<std::size_t>(UINT32_MAX),
                 "callback slab overflow");
    idx = static_cast<std::uint32_t>(callbacks_.size());
    callbacks_.push_back(std::move(fn));
  }
  push(when, nullptr, idx);
}

// The sifts keep the moving task in locals and store it once, at its final
// slot: writing it first and reading it back as a 32-byte copy stalls on
// store forwarding, and these are the engine's hottest lines.
void Engine::push(SimTime when, Target* target, std::uint64_t arg) {
  NW_CHECK_MSG(when >= now_, "scheduling into the past");
  const std::uint64_t seq = next_seq_++;
  // Equal-time order rests on sequence numbers never repeating; at one task
  // per simulated nanosecond a wrap would take ~585 years, but it must never
  // happen silently.
  NW_CHECK_MSG(next_seq_ != 0, "sequence counter wrapped — equal-time order would break");
  std::size_t i = heap_.size();
  heap_.emplace_back();
  // The new task has the largest seq, so it precedes exactly the tasks with
  // a later `when`.
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(when < heap_[parent].when)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = Task{when, seq, target, arg};
}

void Engine::pop() {
  const Task last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], last)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = last;
}

std::uint64_t Engine::run() { return run_until(SimTime::max()); }

std::uint64_t Engine::run_until(SimTime deadline) {
  std::uint64_t ran = 0;
  while (!heap_.empty()) {
    if (stop_requested_) break;
    const SimTime when = heap_[0].when;
    if (when > deadline) break;
    Target* const target = heap_[0].target;
    const std::uint64_t arg = heap_[0].arg;
    pop();
    now_ = when;
    if (target != nullptr) {
      target->fire(arg);
    } else {
      // Move the closure out first: it may schedule more closures, which can
      // grow the slab and reuse this entry.
      const auto idx = static_cast<std::uint32_t>(arg);
      Callback fn = std::move(callbacks_[idx]);
      free_callbacks_.push_back(idx);
      fn();
    }
    ++ran;
    ++executed_;
  }
  // Any latched stop() — from inside a task or between runs — has now been
  // observed by this run; consume it so the next run proceeds.
  stop_requested_ = false;
  return ran;
}

}  // namespace nicwarp::sim

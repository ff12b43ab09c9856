// Discrete-event engine for the *hardware* level of the testbed.
//
// This engine simulates the cluster itself — host CPUs, I/O buses, NIC
// processors and the network — in simulated nanoseconds (SimTime). The
// Time-Warp application under study runs "inside" it: TW kernel work items
// are scheduled here with their modelled CPU costs, so the engine clock at
// termination is the paper's "Simulation Time (sec)" metric.
//
// Single-threaded and deterministic: events at equal times fire in schedule
// order (a monotonically increasing sequence number breaks ties).
//
// Hot-path design (see docs/PERF.md): a task is a 32-byte descriptor
// {when, seq, Target*, arg} kept directly in a binary heap and sifted in
// place. Server completions, link deliveries and every other per-packet task
// name the component that runs them (a Target) plus one 64-bit argument, so
// scheduling them moves no closure. Closures remain for timers, cross-shard
// deliveries and tests: they live in a side slab with a free list, and the
// task's `arg` indexes it. There is no cancellation; a component that may
// no longer want a task checks its own state when the task fires.
#pragma once

#include <cstdint>
#include <vector>

#include "core/small_fn.hpp"
#include "core/types.hpp"

namespace nicwarp::sim {

// A component the engine runs descriptor tasks on. It is held by address
// while a task is queued, so it must outlive its tasks and must not move.
class Target {
 public:
  virtual void fire(std::uint64_t arg) = 0;

 protected:
  ~Target() = default;
};

class Engine {
 public:
  // 96 inline bytes cover every closure scheduling site (the largest is
  // Nic::schedule's timer closure: this + an 80-byte SmallFn).
  using Callback = SmallFn<void(), 96>;

  SimTime now() const { return now_; }

  // Runs `target.fire(arg)` `delay` from now (delay >= 0).
  void schedule(SimTime delay, Target& target, std::uint64_t arg);
  // Same, at an absolute time (>= now()).
  void schedule_at(SimTime when, Target& target, std::uint64_t arg);

  // Closure forms, for timers and tests.
  void schedule(SimTime delay, Callback fn);
  void schedule_at(SimTime when, Callback fn);

  // Runs until no events remain. Returns the number of tasks executed.
  std::uint64_t run();

  // Runs until the clock would pass `deadline` (events at exactly `deadline`
  // still run) or the queue drains. Returns tasks executed.
  std::uint64_t run_until(SimTime deadline);

  // Requests that run()/run_until() return after the current task. The
  // request is latched: a stop() issued while no run is active halts the
  // next run_until() before it executes anything, and is only cleared once
  // a run has observed it.
  void stop() { stop_requested_ = true; }
  bool stopped() const { return stop_requested_; }

  std::size_t pending() const { return heap_.size(); }
  std::uint64_t executed() const { return executed_; }

  // Earliest pending task's time, or SimTime::max() when the queue is empty.
  // This is the `h` each shard advertises in the LBTS exchange
  // (sim/shard_sync.hpp); it never runs anything and never consumes a
  // latched stop().
  SimTime next_time() const {
    return heap_.empty() ? SimTime::max() : heap_[0].when;
  }

 private:
  // target == nullptr marks a closure task; arg is then its slab index.
  struct Task {
    SimTime when;
    std::uint64_t seq;
    Target* target;
    std::uint64_t arg;
  };
  static_assert(sizeof(Task) == 32);

  static bool before(const Task& a, const Task& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  void push(SimTime when, Target* target, std::uint64_t arg);
  // Removes the root.
  void pop();

  SimTime now_{SimTime::zero()};
  std::uint64_t next_seq_{1};
  std::uint64_t executed_{0};
  bool stop_requested_{false};
  std::vector<Task> heap_;
  std::vector<Callback> callbacks_;
  std::vector<std::uint32_t> free_callbacks_;
};

}  // namespace nicwarp::sim

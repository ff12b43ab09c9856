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
// Hot-path design (see docs/PERF.md): tasks live in a pooled slot array and
// an explicit slot-indexed binary heap. schedule() never heap-allocates on
// the common path (callbacks are SmallFn with inline storage; slots and heap
// nodes are recycled vector entries), cancel() removes the heap entry
// immediately via the slot's stored heap position (no lazy tombstones), and
// pop-min touches no hash table.
#pragma once

#include <cstdint>
#include <vector>

#include "core/small_fn.hpp"
#include "core/types.hpp"

namespace nicwarp::sim {

// Opaque handle for cancelling a scheduled callback. `id` is the task's
// unique sequence number (never reused — the engine asserts the 64-bit
// counter cannot wrap); `slot` locates the task's pooled storage. A handle
// whose task already ran or was cancelled simply fails to validate against
// the slot's current sequence number, even after the slot is recycled.
struct TaskHandle {
  std::uint64_t id{0};
  std::uint32_t slot{0};
  bool valid() const { return id != 0; }
};

class Engine {
 public:
  // 96 inline bytes cover every scheduling site on the hot path (the largest
  // is Nic::schedule's timer closure: this + an 80-byte SmallFn).
  using Callback = SmallFn<void(), 96>;

  SimTime now() const { return now_; }

  // Schedules `fn` to run `delay` from now (delay >= 0).
  TaskHandle schedule(SimTime delay, Callback fn);

  // Schedules at an absolute time (>= now()).
  TaskHandle schedule_at(SimTime when, Callback fn);

  // Cancels a pending task; returns false if it already ran or was cancelled.
  bool cancel(TaskHandle h);

  // Runs until no events remain. Returns the number of callbacks executed.
  std::uint64_t run();

  // Runs until the clock would pass `deadline` (events at exactly `deadline`
  // still run) or the queue drains. Returns callbacks executed.
  std::uint64_t run_until(SimTime deadline);

  // Requests that run()/run_until() return after the current callback. The
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
  struct HeapNode {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    Callback fn;
    std::uint64_t seq{0};  // 0 == free; equals the TaskHandle id while live
    std::uint32_t heap_pos{0};
  };

  static bool node_before(const HeapNode& a, const HeapNode& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  // Removes the heap node at `pos` (swap-with-last + sift), keeping every
  // slot's heap_pos in sync.
  void heap_erase(std::size_t pos);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);

  SimTime now_{SimTime::zero()};
  std::uint64_t next_seq_{1};
  std::uint64_t executed_{0};
  bool stop_requested_{false};
  std::vector<HeapNode> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace nicwarp::sim

// FIFO work server: the shared model for every serially-occupied hardware
// resource in the cluster — a host CPU, a NIC processor, an I/O bus, a
// network link. Jobs occupy the resource for their cost and complete in
// submission order; contention and queueing delay emerge from the engine
// clock rather than being modelled analytically.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "core/small_fn.hpp"
#include "core/stats.hpp"
#include "core/types.hpp"
#include "sim/engine.hpp"

namespace nicwarp::sim {

class Server {
 public:
  // Jobs are SmallFn so enqueueing a lambda that captures a few words (the
  // overwhelmingly common case) never heap-allocates.
  using WorkFn = SmallFn<SimTime(), 64>;
  using CompletionFn = SmallFn<void(), 64>;

  // `name` keys the utilization counters `<name>.jobs` and `<name>.busy_ns`
  // in `stats` (may be null for tests; nothing is recorded then).
  Server(Engine& engine, std::string name, StatsRegistry* stats = nullptr);

  // Engine callbacks hold `this`, and the counter handles view name_.
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  Server(Server&&) = delete;
  Server& operator=(Server&&) = delete;

  // Enqueues a job that holds the server for `cost`, then runs on_complete.
  void submit(SimTime cost, CompletionFn on_complete);

  // Enqueues a job whose cost is only known once it starts executing (e.g. a
  // firmware hook whose work depends on queue state at service time): `work`
  // runs when the server picks the job up and returns the time to occupy it;
  // `on_complete` runs when that time has elapsed.
  void submit_dynamic(WorkFn work, CompletionFn on_complete);

  bool idle() const { return !busy_; }
  std::size_t queue_length() const { return queue_.size() - (busy_ ? 1 : 0); }

  const std::string& name() const { return name_; }

 private:
  void start_next();
  // Completion of the job in service, which occupied the server for `cost`.
  void finish(SimTime cost);

  Engine& engine_;
  std::string name_;
  StatsRegistry* stats_;
  CounterHandle jobs_;     // <name>.jobs
  CounterHandle busy_ns_;  // <name>.busy_ns: total occupied time

  struct Job {
    WorkFn work;  // returns occupancy; runs at service start
    CompletionFn on_complete;
  };
  // While busy_, the front job is in service. It stays queued until it
  // completes, so the engine callback carries only `this` and the cost.
  std::deque<Job> queue_;
  bool busy_{false};
};

}  // namespace nicwarp::sim

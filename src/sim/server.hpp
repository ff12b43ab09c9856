// FIFO work server: the shared model for every serially-occupied hardware
// resource in the cluster — a host CPU, a NIC processor, an I/O bus, a
// network link. Jobs occupy the resource for their cost and complete in
// submission order; contention and queueing delay emerge from the engine
// clock rather than being modelled analytically.
//
// A job is a 32-byte descriptor {Owner*, arg, cost, stage} queued in a
// FlatRing: the owning component (Node, Nic, Network, Kernel) switches over
// its few stages to start a job (when its cost is only known then) and to
// finish it, and `arg` carries a packed PacketRef or nothing. Closure jobs
// remain for timers and tests; their SmallFns sit in a side slab that the
// descriptor indexes, and a job that only charges time needs neither.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/flat_ring.hpp"
#include "core/small_fn.hpp"
#include "core/stats.hpp"
#include "core/types.hpp"
#include "sim/engine.hpp"

namespace nicwarp::sim {

// A component whose jobs a Server runs. It is held by address while a job is
// queued, so it must outlive its jobs and must not move.
class Owner {
 public:
  // Called when a job submitted with submit_dynamic() enters service;
  // returns the time it occupies the server (>= 0).
  virtual SimTime start_job(std::uint32_t stage, std::uint64_t arg) = 0;
  // Called when the job's service time has elapsed.
  virtual void finish_job(std::uint32_t stage, std::uint64_t arg) = 0;

 protected:
  ~Owner() = default;
};

class Server final : private Target {
 public:
  using WorkFn = SmallFn<SimTime(), 64>;
  using CompletionFn = SmallFn<void(), 64>;

  // `name` keys the utilization counters `<name>.jobs` and `<name>.busy_ns`
  // in `stats` (may be null for tests; nothing is recorded then).
  Server(Engine& engine, std::string name, StatsRegistry* stats = nullptr);

  // Engine tasks hold `this`, and the counter handles view name_.
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  Server(Server&&) = delete;
  Server& operator=(Server&&) = delete;

  // Enqueues a job that holds the server for `cost`, then runs
  // owner.finish_job(stage, arg).
  void submit(SimTime cost, Owner& owner, std::uint32_t stage, std::uint64_t arg);

  // Enqueues a job whose cost is only known once it starts executing (e.g. a
  // firmware hook whose work depends on queue state at service time):
  // owner.start_job(stage, arg) returns the occupancy when the server picks
  // the job up, and owner.finish_job(stage, arg) runs when it has elapsed.
  void submit_dynamic(Owner& owner, std::uint32_t stage, std::uint64_t arg);

  // Closure forms. A null `on_complete` with a fixed cost only charges time.
  void submit(SimTime cost, CompletionFn on_complete);
  void submit_dynamic(WorkFn work, CompletionFn on_complete);

  bool idle() const { return !busy_; }
  std::size_t queue_length() const { return queue_.size() - (busy_ ? 1 : 0); }

  const std::string& name() const { return name_; }

 private:
  // owner == nullptr marks a closure job; arg then indexes closures_, or is
  // kNoClosure for a job that only charges time.
  struct Job {
    Owner* owner{nullptr};
    std::uint64_t arg{0};
    std::int64_t cost_ns{0};  // < 0: the cost is given when the job starts
    std::uint32_t stage{0};
  };
  static_assert(sizeof(Job) == 32);
  struct Closure {
    WorkFn work;  // empty for fixed-cost jobs
    CompletionFn on_complete;
  };
  static constexpr std::uint64_t kNoClosure = ~std::uint64_t{0};

  void enqueue(Owner* owner, std::uint64_t arg, std::int64_t cost_ns, std::uint32_t stage);
  std::uint64_t store_closure(WorkFn work, CompletionFn on_complete);
  // Puts the job at the front of the queue in service. Takes its fields by
  // value, never a reference into the ring (see server.cpp).
  void start(Owner* owner, std::uint64_t arg, std::int64_t cost_ns, std::uint32_t stage);
  // Engine completion of the job in service; `arg` is its cost in ns.
  void fire(std::uint64_t arg) override;

  Engine& engine_;
  std::string name_;
  StatsRegistry* stats_;
  CounterHandle jobs_;     // <name>.jobs
  CounterHandle busy_ns_;  // <name>.busy_ns: total occupied time

  // While busy_, the front job is in service. It stays queued until it
  // completes, so the engine task carries only `this` and the cost.
  FlatRing<Job> queue_;
  bool busy_{false};
  std::vector<Closure> closures_;
  std::vector<std::uint32_t> free_closures_;
};

}  // namespace nicwarp::sim

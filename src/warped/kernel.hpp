// Per-node Time-Warp kernel: glues the LogicalProcess (virtual-time machine)
// to the hardware model (host CPU costs, comm stack, NIC mailbox) and to the
// GVT manager.
//
// Scheduling model: the kernel keeps at most one "step" task on the host CPU
// at a time; each step executes the least pending event, dispatches its
// sends (local inserts or remote packets), and returns its modelled cost.
// Message arrivals are integrated inside the host receive task and any
// rollback work is charged as a follow-up host task. Object initialization,
// each step and each outgoing control message are descriptor jobs the kernel
// owns on the host CPU.
#pragma once

#include <functional>
#include <memory>

#include "comm/host_comm.hpp"
#include "core/profile_hook.hpp"
#include "core/rng.hpp"
#include "core/timeseries.hpp"
#include "core/trace.hpp"
#include "hw/node.hpp"
#include "warped/gvt_manager.hpp"
#include "warped/lp.hpp"
#include "warped/partition.hpp"

namespace nicwarp::warped {

enum class GvtMode { kHostMattern, kNic, kPGvt };

struct KernelOptions {
  RollbackScope rollback_scope = RollbackScope::kLp;  // paper-era default
  CancellationMode cancellation = CancellationMode::kAggressive;
  // Full-snapshot cadence: every N events (N >= 1), or 0 for the adaptive
  // interval driven by observed rollback depth.
  std::int64_t state_save_period = 1;
  // Copy state saving (clone per snapshot) vs incremental undo logging
  // (record-before-write via State::mut, rewind on rollback).
  StateSaveMode state_mode = StateSaveMode::kCopy;
  double idle_poll_us = 50.0;  // manager poll cadence when nothing else runs
  bool paranoia_checks = false;  // LP-level pairing checks (tests)
  // When set, every GVT adoption on THIS kernel is reported to the sampler.
  // The harness wires it to exactly one kernel (rank 0) so a cluster-wide
  // adoption yields one sample, not world_size of them. Not owned.
  TimeSeriesSampler* sampler = nullptr;
  // Online profiler (src/profile). Null = off; every hook site is one
  // predicted-false branch. Enabling it also turns on undone-id collection
  // in the LP (the only extra work plain runs would otherwise pay). Not
  // owned; one hook may serve every kernel in the testbed.
  ProfileHook* profile = nullptr;
};

class Kernel final : public KernelApi, private sim::Owner {
 public:
  Kernel(hw::Node& node, comm::HostComm& comm, std::shared_ptr<const Partition> part,
         std::unique_ptr<GvtManager> mgr, KernelOptions opts, std::uint64_t seed);

  // Host-CPU jobs and the comm deliver hook hold `this`.
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  void add_object(std::unique_ptr<SimulationObject> obj) { lp_.add_object(std::move(obj)); }

  // Initializes objects (a host task) and begins pumping. Call after all
  // kernels exist (cross-node traffic may start immediately).
  void start();

  LogicalProcess& lp() { return lp_; }
  GvtManager& gvt_manager() { return *mgr_; }
  bool stopped() const { return stopped_; }
  // Simulated instant at which this kernel detected termination.
  SimTime stop_time() const { return stop_time_; }
  VirtualTime gvt() const { return mgr_->gvt(); }

  // --- KernelApi ---
  NodeId rank() const override { return node_.id(); }
  std::uint32_t world_size() const override { return world_size_; }
  const hw::CostModel& cost() const override { return node_.cost(); }
  StatsRegistry& stats() override { return node_.stats(); }
  hw::Mailbox& mailbox() override { return node_.mailbox(); }
  VirtualTime safe_local_min() const override;
  std::int64_t events_processed() const override {
    return static_cast<std::int64_t>(lp_.events_processed());
  }
  bool lp_idle() const override { return !lp_.has_ready_event() && comm_.staged() == 0; }
  void send_control(hw::Packet pkt) override;
  void run_host_task(SimTime task_cost, SmallFn<void(), 64> fn) override {
    node_.run_host_task(task_cost, std::move(fn));
  }
  void schedule(SimTime delay, SmallFn<void(), 64> fn) override {
    node_.engine().schedule(delay, std::move(fn));
  }
  void on_new_gvt(VirtualTime g) override;
  SimTime now() const override { return node_.engine().now(); }

 private:
  enum Stage : std::uint32_t {
    kInit,     // object initialization; then pump()
    kStep,     // one do_step(); then pump()
    kControl,  // host_gvt_ctrl_us for a pooled control packet; then send it
  };
  SimTime start_job(std::uint32_t stage, std::uint64_t arg) override;
  void finish_job(std::uint32_t stage, std::uint64_t arg) override;

  void pump();
  SimTime do_step();  // returns the step's host-CPU cost
  // Routes one event; accumulates host cost (µs) into `cost_us`.
  void dispatch_event(EventMsg ev, double& cost_us);
  // `cause_*` describe the message whose insertion produced `res` (the
  // rollback trigger when res.rollback): id, polarity, and the sending node
  // (kInvalidNode for local sends).
  void apply_insert_result(const LogicalProcess::InsertResult& res, double& cost_us,
                           EventId cause_id, bool cause_negative, NodeId cause_src);
  void on_deliver(hw::Packet pkt);
  void idle_tick();
  void drain_drop_notices(double& cost_us);
  SimTime jittered_exec_cost();

  hw::Node& node_;
  comm::HostComm& comm_;
  std::shared_ptr<const Partition> part_;
  std::unique_ptr<GvtManager> mgr_;
  KernelOptions opts_;
  std::uint32_t world_size_;
  LogicalProcess lp_;
  Rng jitter_rng_;

  bool started_{false};
  SimTime stop_time_{SimTime::zero()};
  bool step_active_{false};
  bool stopped_{false};

  CounterHandle kernels_terminated_;  // tw.*, one handle per counter name
  CounterHandle drop_notices_;
  CounterHandle events_sent_;
  CounterHandle antis_sent_;
};

}  // namespace nicwarp::warped

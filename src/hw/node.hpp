// One cluster node: host CPU + I/O bus + programmable NIC.
//
// The host CPU is a FIFO server the Time-Warp kernel submits its work items
// to; the I/O bus is shared by tx and rx DMA (both directions contend, which
// is the bottleneck the paper's NIC-resident GVT traffic sidesteps).
#pragma once

#include <functional>
#include <memory>

#include "core/phase_profiler.hpp"
#include "core/stats.hpp"
#include "core/types.hpp"
#include "hw/cost_model.hpp"
#include "hw/nic.hpp"
#include "sim/engine.hpp"
#include "sim/server.hpp"

namespace nicwarp::hw {

// Owns the bus tx DMA job (finishing into Nic::accept_from_host) and the
// host receive job (finishing into the raw-rx handler).
class Node final : private sim::Owner {
 public:
  // `trace`/`latency`/`entity`/`phases` may be null (tests); records then go
  // to a never-enabled sink.
  Node(sim::Engine& engine, StatsRegistry& stats, const CostModel& cost, NodeId id,
       std::uint32_t world_size, Network& network, PacketPool& pool,
       std::unique_ptr<Firmware> firmware, TraceRecorder* trace = nullptr,
       LatencyRecorder* latency = nullptr, EntityStats* entity = nullptr,
       PhaseProfiler* phases = nullptr);

  // Server jobs and the NIC's host-deliver hook hold `this`.
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  std::uint32_t world_size() const { return world_size_; }
  sim::Server& host_cpu() { return host_cpu_; }
  sim::Server& bus() { return bus_; }
  Nic& nic() { return *nic_; }
  Mailbox& mailbox() { return nic_->mailbox(); }
  const CostModel& cost() const { return cost_; }
  sim::Engine& engine() { return engine_; }
  StatsRegistry& stats() { return stats_; }
  TraceRecorder& trace() { return nic_->trace(); }
  LatencyRecorder& latency() { return nic_->latency(); }
  EntityStats& entity() { return nic_->entity(); }
  PhaseProfiler& phases() { return *phases_; }
  PacketPool& pool() { return pool_; }

  // --- raw packet interface for the comm layer (host-task context) ---

  // True if the NIC can accept one more host packet.
  bool nic_tx_ready() const { return nic_->tx_slot_available(); }

  // DMAs a pooled packet to the NIC. Precondition: nic_tx_ready(). The
  // host-CPU cost of building the message is the *caller's* to charge; this
  // only models the bus transfer and NIC-side handling.
  void dma_to_nic(PacketRef ref);
  // Value-typed convenience (tests, models): acquires a pool slot first.
  void dma_to_nic(Packet pkt) { dma_to_nic(pool_.acquire(std::move(pkt))); }

  // Handler invoked (inside a host CPU task, after the modelled receive
  // cost) for every packet that reaches the host. The handler owns the ref.
  void set_raw_rx(std::function<void(PacketRef)> fn) { raw_rx_ = std::move(fn); }

  // Invoked whenever the NIC frees a tx slot (backpressure release).
  void set_tx_ready_cb(std::function<void()> fn);

  // Convenience: submit host work. A null `fn` only charges time.
  void run_host_task(SimTime cost, sim::Server::CompletionFn fn) {
    host_cpu_.submit(cost, std::move(fn));
  }

  // Host-side receive cost by packet kind.
  SimTime host_recv_cost(const Packet& pkt) const;

 private:
  enum Stage : std::uint32_t { kTxDma, kHostRecv };
  SimTime start_job(std::uint32_t stage, std::uint64_t arg) override;
  void finish_job(std::uint32_t stage, std::uint64_t arg) override;

  sim::Engine& engine_;
  StatsRegistry& stats_;
  const CostModel& cost_;
  NodeId id_;
  std::uint32_t world_size_;
  PacketPool& pool_;
  sim::Server host_cpu_;
  sim::Server bus_;
  std::unique_ptr<Nic> nic_;
  PhaseProfiler* phases_;  // never null; defaults to the null profiler
  std::function<void(PacketRef)> raw_rx_;
  CounterHandle tx_packets_;  // host.tx_packets
};

}  // namespace nicwarp::hw

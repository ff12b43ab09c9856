// The whole testbed: N nodes plus the switch fabric, partitioned into
// `shards` independently-clocked slices (one engine, stats registry, packet
// pool, trace/latency/entity/phase recorder and Network per shard), with
// per-node deterministic RNG streams for the workload models.
//
// shards == 1 (the default) is the classic single-threaded testbed and is
// byte-identical to the pre-sharding Cluster: one ShardCtx holds exactly the
// members the old flat layout held, constructed in the same order, and every
// legacy accessor (engine(), stats(), ...) resolves to shard 0.
//
// shards > 1 partitions node ranks into contiguous blocks (shard_of()); each
// shard owns its nodes outright and all cross-shard traffic flows through
// SPSC mailbox rings (hw/shard_mailbox.hpp) under the conservative-window
// protocol driven by the harness (sim/shard_sync.hpp, docs/SHARDING.md).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/entity_stats.hpp"
#include "core/latency.hpp"
#include "core/phase_profiler.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"
#include "hw/cost_model.hpp"
#include "hw/network.hpp"
#include "hw/node.hpp"
#include "hw/shard_mailbox.hpp"
#include "sim/engine.hpp"

namespace nicwarp::hw {

class Cluster {
 public:
  // `faults` configures deterministic fabric fault injection (inert by
  // default); pair a non-trivial plan with cost.rel_enabled or Time-Warp
  // correctness is forfeit. `shards` partitions the node ranks across that
  // many engine slices (1 <= shards <= num_nodes).
  Cluster(CostModel cost, std::uint32_t num_nodes, const FirmwareFactory& firmware,
          std::uint64_t seed, const FaultPlan& faults = {},
          std::uint32_t shards = 1);

  // ---- shard topology ----
  std::uint32_t shards() const { return static_cast<std::uint32_t>(shards_.size()); }
  std::uint32_t shard_of(NodeId id) const { return shard_of_.at(id); }
  // Conservative lookahead between shards: the minimum cross-shard link
  // latency, which with a single crossbar is THE link latency. Every
  // cross-shard delivery happens >= lookahead after the sending event.
  SimTime lookahead() const { return cost_.us(cost_.link_latency_us); }

  // ---- per-shard accessors (the no-arg forms resolve to shard 0, which is
  // the whole cluster when shards() == 1) ----
  sim::Engine& engine(std::uint32_t s = 0) { return shard(s).engine; }
  StatsRegistry& stats(std::uint32_t s = 0) { return shard(s).stats; }
  // Shard trace recorder; disabled (mask 0) until configure_trace()d.
  TraceRecorder& trace(std::uint32_t s = 0) { return shard(s).trace; }
  // Shard latency recorder; disabled until set_latency_enabled(true).
  LatencyRecorder& latency(std::uint32_t s = 0) { return shard(s).latency; }
  // Per-LP / per-link / per-node heatmap registry; disabled until
  // configure_entity()d.
  EntityStats& entity(std::uint32_t s = 0) { return shard(s).entity; }
  // Wall-clock phase profiler (noisy); disabled until enable_phases()d.
  PhaseProfiler& phases(std::uint32_t s = 0) { return shard(s).phases; }
  // Shard packet slab: comm staging, NIC rings, packets on the wire. Packets
  // never cross shard pools — the mailbox hand-off moves them by value.
  PacketPool& pool(std::uint32_t s = 0) { return shard(s).pool; }
  Network& network(std::uint32_t s = 0) { return *shard(s).network; }

  const CostModel& cost() const { return cost_; }
  std::uint32_t size() const { return static_cast<std::uint32_t>(nodes_.size()); }
  Node& node(NodeId id) { return *nodes_.at(id); }
  Rng& node_rng(NodeId id) { return *rngs_.at(id); }
  std::uint64_t seed() const { return seed_; }

  // ---- cluster-wide observability config (applies to every shard) ----
  void configure_trace(std::uint32_t category_mask, std::size_t capacity);
  void set_latency_enabled(bool on);
  void configure_entity(std::uint32_t nodes);
  void enable_phases();

  // ---- merged end-of-run views. With shards() == 1 these return shard 0's
  // live objects (zero-copy, byte-identical to the unsharded testbed); with
  // more they rebuild a cached merge in ascending shard order on every call,
  // so call them after the run, not per-event. ----
  StatsRegistry& merged_stats();
  LatencyRecorder& merged_latency();
  EntityStats& merged_entity();
  PhaseProfiler& merged_phases();
  // K-way merge of the shard trace rings ordered by (SimTime, shard index);
  // total_recorded()/overwritten() on the merged view sum the shards.
  TraceRecorder& merged_trace();

  // Latest engine clock across shards (they advance in loose lockstep, one
  // conservative window apart at most).
  SimTime now_max() const;

  // ---- sharded-run plumbing (driven by harness::Testbed) ----
  // The sender-round stamp used for this shard's outbound mailbox pushes;
  // the shard's own worker thread sets it at each window start.
  std::uint64_t& shard_round(std::uint32_t s) { return shard(s).round; }
  // Installed per shard before the worker threads start: called while a
  // mailbox push is blocked on a full ring (must stage shard `s`'s inbound
  // traffic) and returns true when the run is aborting.
  void set_shard_idle_hook(std::uint32_t s, std::function<bool()> hook) {
    stall_.at(s) = std::move(hook);
  }
  // Moves every visible inbound ring entry of shard `s` into its staging
  // deques (consumer thread only; safe at any point in the round).
  void stage_shard_inbound(std::uint32_t s);
  // Schedules every inbound entry with stamp <= max_stamp onto shard `s`'s
  // engine at its recorded delivery time, in fixed sender order (consumer
  // thread only; call only at the round boundary, after the fences).
  void drain_shard_inbound(std::uint32_t s, std::uint64_t max_stamp);

  // Runs the hardware simulation until the event queue drains or `max_time`
  // is reached; returns the final engine clock. Single-shard clusters only —
  // sharded runs go through harness::Testbed::run_to_completion.
  SimTime run(SimTime max_time = SimTime::max());

 private:
  // One slice of the testbed. Member order inside the struct preserves the
  // pre-sharding Cluster's destruction contract: the pool outlives the
  // network (which holds live refs in in-flight callbacks).
  struct ShardCtx {
    sim::Engine engine;
    StatsRegistry stats;
    TraceRecorder trace;      // must outlive network and nodes
    LatencyRecorder latency;  // must outlive network and nodes
    EntityStats entity;       // must outlive network and nodes
    PhaseProfiler phases;     // must outlive network and nodes
    PacketPool pool;          // must outlive network and nodes
    std::unique_ptr<Network> network;
    std::uint64_t round{0};  // current LBTS round (worker thread only)
    CounterHandle xshard_delivered{stats, "net.xshard_delivered"};
  };

  ShardCtx& shard(std::uint32_t s) { return *shards_.at(s); }
  void push_remote(std::uint32_t src_shard, NodeId dst, SimTime deliver_at,
                   Packet&& pkt);

  CostModel cost_;
  std::uint64_t seed_;
  std::vector<std::uint32_t> shard_of_;            // rank -> shard
  std::vector<std::unique_ptr<ShardCtx>> shards_;  // must outlive nodes_
  std::unique_ptr<ShardMailboxes> mailboxes_;      // null when shards() == 1
  std::vector<std::function<bool()>> stall_;       // per-shard blocked-push hook
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Rng>> rngs_;

  // Merge caches, rebuilt on each merged_*() call when shards() > 1.
  StatsRegistry merged_stats_;
  LatencyRecorder merged_latency_;
  EntityStats merged_entity_;
  PhaseProfiler merged_phases_;
  TraceRecorder merged_trace_;
};

}  // namespace nicwarp::hw

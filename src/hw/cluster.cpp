#include "hw/cluster.hpp"

#include <thread>

#include "core/assert.hpp"

namespace nicwarp::hw {

Cluster::Cluster(CostModel cost, std::uint32_t num_nodes, const FirmwareFactory& firmware,
                 std::uint64_t seed, const FaultPlan& faults, std::uint32_t shards)
    : cost_(cost), seed_(seed) {
  NW_CHECK(num_nodes >= 1);
  NW_CHECK_MSG(shards >= 1 && shards <= num_nodes,
               "cluster shards must satisfy 1 <= shards <= nodes");
  // Contiguous block partition: rank blocks of size ceil/floor(N/S), the
  // first N % S shards one node larger. Contiguity keeps the heavy intra-app
  // traffic of neighbor-structured models on one engine where possible.
  shard_of_.resize(num_nodes);
  {
    const std::uint32_t base = num_nodes / shards;
    const std::uint32_t rem = num_nodes % shards;
    std::uint32_t rank = 0;
    for (std::uint32_t s = 0; s < shards; ++s) {
      const std::uint32_t count = base + (s < rem ? 1 : 0);
      for (std::uint32_t i = 0; i < count; ++i) shard_of_[rank++] = s;
    }
    NW_CHECK(rank == num_nodes);
  }
  shards_.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    auto ctx = std::make_unique<ShardCtx>();
    // Every shard's Network is built over all N injection links so the link
    // server names and the per-link fault RNG streams ("fault.link<i>") are
    // laid out exactly as in the unsharded fabric; only the links of locally
    // owned ranks ever carry traffic.
    ctx->network = std::make_unique<Network>(ctx->engine, ctx->stats, cost_,
                                            ctx->pool, num_nodes, &ctx->trace,
                                            &ctx->entity);
    if (faults.enabled()) ctx->network->set_fault_plan(faults);
    shards_.push_back(std::move(ctx));
  }
  if (shards > 1) {
    NW_CHECK_MSG(lookahead() > SimTime::zero(),
                 "sharding requires a positive link latency (the lookahead)");
    mailboxes_ = std::make_unique<ShardMailboxes>(shards);
  }
  stall_.assign(shards, [] {
    std::this_thread::yield();
    return false;
  });
  nodes_.reserve(num_nodes);
  rngs_.reserve(num_nodes);
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    ShardCtx& ctx = shard(shard_of_[i]);
    nodes_.push_back(std::make_unique<Node>(ctx.engine, ctx.stats, cost_, i,
                                            num_nodes, *ctx.network, ctx.pool,
                                            firmware(i), &ctx.trace, &ctx.latency,
                                            &ctx.entity, &ctx.phases));
    rngs_.push_back(std::make_unique<Rng>(seed, "node" + std::to_string(i)));
  }
  for (std::uint32_t s = 0; s < shards; ++s) {
    // The sink only ever sees on-shard destinations: remote ones divert to
    // the mailbox inside Network::schedule_delivery.
    shard(s).network->set_sink([this](NodeId dst, PacketRef ref) {
      nodes_.at(dst)->nic().receive_from_net(ref);
    });
    if (shards > 1) {
      std::vector<std::uint8_t> remote(num_nodes, 0);
      for (std::uint32_t i = 0; i < num_nodes; ++i) {
        remote[i] = shard_of_[i] != s ? 1 : 0;
      }
      shard(s).network->set_remote_route(
          std::move(remote), [this, s](NodeId dst, SimTime at, Packet&& pkt) {
            push_remote(s, dst, at, std::move(pkt));
          });
    }
  }
}

void Cluster::push_remote(std::uint32_t src_shard, NodeId dst, SimTime deliver_at,
                          Packet&& pkt) {
  ShardMsg m;
  m.deliver_at_ns = deliver_at.ns;
  m.stamp = shard(src_shard).round;
  m.dst = dst;
  m.pkt = std::move(pkt);
  mailboxes_->push(src_shard, shard_of_[dst], std::move(m), stall_[src_shard]);
}

void Cluster::stage_shard_inbound(std::uint32_t s) { mailboxes_->stage(s); }

void Cluster::drain_shard_inbound(std::uint32_t s, std::uint64_t max_stamp) {
  ShardCtx& ctx = shard(s);
  for (std::uint32_t src = 0; src < shards(); ++src) {
    if (src == s) continue;
    mailboxes_->drain(src, s, max_stamp, [&](ShardMsg&& m) {
      // Re-acquire into the destination pool; from here the delivery is the
      // ordinary sink path, at the absolute instant the source computed.
      const PacketRef ref = ctx.pool.acquire(std::move(m.pkt));
      const NodeId dst = m.dst;
      ctx.xshard_delivered.add(1);
      ctx.engine.schedule_at(SimTime{m.deliver_at_ns}, [this, dst, ref] {
        nodes_[dst]->nic().receive_from_net(ref);
      });
    });
  }
}

void Cluster::configure_trace(std::uint32_t category_mask, std::size_t capacity) {
  for (auto& s : shards_) s->trace.configure(category_mask, capacity);
}

void Cluster::set_latency_enabled(bool on) {
  for (auto& s : shards_) s->latency.set_enabled(on);
}

void Cluster::configure_entity(std::uint32_t nodes) {
  for (auto& s : shards_) s->entity.configure(nodes);
}

void Cluster::enable_phases() {
  for (auto& s : shards_) s->phases.enable();
}

StatsRegistry& Cluster::merged_stats() {
  if (shards() == 1) return shards_[0]->stats;
  merged_stats_ = StatsRegistry{};
  for (auto& s : shards_) merged_stats_.merge_from(s->stats);
  return merged_stats_;
}

LatencyRecorder& Cluster::merged_latency() {
  if (shards() == 1) return shards_[0]->latency;
  merged_latency_ = LatencyRecorder{};
  merged_latency_.set_enabled(shards_[0]->latency.enabled());
  for (auto& s : shards_) merged_latency_.merge_from(s->latency);
  return merged_latency_;
}

EntityStats& Cluster::merged_entity() {
  if (shards() == 1) return shards_[0]->entity;
  merged_entity_ = EntityStats{};
  if (shards_[0]->entity.enabled()) {
    merged_entity_.configure(shards_[0]->entity.nodes());
    for (auto& s : shards_) merged_entity_.merge_from(s->entity);
  }
  return merged_entity_;
}

PhaseProfiler& Cluster::merged_phases() {
  if (shards() == 1) return shards_[0]->phases;
  merged_phases_ = PhaseProfiler{};
  for (auto& s : shards_) merged_phases_.merge_from(s->phases);
  return merged_phases_;
}

TraceRecorder& Cluster::merged_trace() {
  if (shards() == 1) return shards_[0]->trace;
  std::size_t total_size = 0;
  std::uint64_t total_recorded = 0;
  std::uint64_t overwritten = 0;
  for (auto& s : shards_) {
    total_size += s->trace.size();
    total_recorded += s->trace.total_recorded();
    overwritten += s->trace.overwritten();
  }
  merged_trace_.configure(shards_[0]->trace.mask(),
                          total_size > 0 ? total_size : 1);
  // K-way merge on (at, shard index): each shard's retained window is
  // already in SimTime order, and the shard index breaks equal-time ties the
  // same way every run.
  std::vector<std::size_t> pos(shards(), 0);
  for (;;) {
    std::size_t best = shards();
    for (std::size_t s = 0; s < shards(); ++s) {
      if (pos[s] >= shards_[s]->trace.size()) continue;
      if (best == shards() ||
          shards_[s]->trace.at(pos[s]).at < shards_[best]->trace.at(pos[best]).at) {
        best = s;
      }
    }
    if (best == shards()) break;
    merged_trace_.record(shards_[best]->trace.at(pos[best]));
    ++pos[best];
  }
  merged_trace_.set_accounting(total_recorded, overwritten);
  return merged_trace_;
}

SimTime Cluster::now_max() const {
  SimTime t = SimTime::zero();
  for (const auto& s : shards_) t = std::max(t, s->engine.now());
  return t;
}

SimTime Cluster::run(SimTime max_time) {
  NW_CHECK_MSG(shards() == 1,
               "Cluster::run drives one engine; sharded runs go through the harness");
  engine().run_until(max_time);
  return engine().now();
}

}  // namespace nicwarp::hw

// Myrinet-like switch fabric: one injection link per node (serialized at
// link bandwidth) feeding a non-blocking crossbar with fixed traversal
// latency. Links are FIFO, so packets between a node pair arrive in
// transmission order — the property BIP sequence numbers rely on to turn a
// receive-side gap into proof of an intentional NIC drop.
//
// Packets in flight live in the shared PacketPool; the fabric moves 8-byte
// PacketRefs. Ownership of a ref passes to the fabric at transmit() and to
// the sink at delivery; a fabric drop releases the slot here.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/entity_stats.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "hw/cost_model.hpp"
#include "hw/fault.hpp"
#include "hw/packet_pool.hpp"
#include "sim/engine.hpp"
#include "sim/server.hpp"

namespace nicwarp::hw {

// The component transmitting on an injection link (the node's NIC). It is
// registered once per link and told each time the link has finished
// serializing one of its packets.
class LinkClient {
 public:
  // `host_pkt` echoes the flag the packet was transmitted with.
  virtual void on_link_free(bool host_pkt) = 0;

 protected:
  ~LinkClient() = default;
};

// Owns the link-serialization jobs (stage = src << 1 | host_pkt) and, as an
// engine Target, the delivery after link latency (arg = the packed ref).
class Network final : private sim::Owner, private sim::Target {
 public:
  using Sink = std::function<void(NodeId dst, PacketRef ref)>;

  // `trace` / `entity` may be null (tests); records then go to a
  // never-enabled sink.
  Network(sim::Engine& engine, StatsRegistry& stats, const CostModel& cost,
          PacketPool& pool, std::uint32_t num_nodes, TraceRecorder* trace = nullptr,
          EntityStats* entity = nullptr);

  // Engine tasks and link jobs hold `this`.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Routes packets that complete wire traversal; set once by the Cluster.
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  // Registers the client of `src`'s injection link; set once by its NIC.
  void set_link_client(NodeId src, LinkClient& client);

  // Cross-shard egress (sharded clusters only; see docs/SHARDING.md). When
  // `is_remote[dst]` is set, a packet completing wire traversal is moved OUT
  // of this shard's pool and handed to `push` as a value, together with its
  // absolute delivery time `now + link latency + fault extra`; the
  // destination shard re-acquires it into its own pool and runs the sink
  // there. An empty mask (the default) leaves every delivery on the exact
  // single-shard path. Faults are all drawn on the source side, so the fault
  // schedule of a link is identical however the cluster is sharded.
  using RemotePush = std::function<void(NodeId dst, SimTime deliver_at, Packet&& pkt)>;
  void set_remote_route(std::vector<std::uint8_t> is_remote, RemotePush push) {
    remote_ = std::move(is_remote);
    remote_push_ = std::move(push);
  }

  // Arms deterministic fault injection. One RNG stream per injection link so
  // traffic on one link never perturbs another's fault schedule. An inert
  // plan (enabled() == false) leaves delivery byte-identical to the reliable
  // fabric.
  void set_fault_plan(const FaultPlan& plan);
  const FaultPlan& fault_plan() const { return fault_; }

  // Transmits the pooled packet from `src`'s injection link, taking ownership
  // of the ref. The link's client hears on_link_free(host_pkt) when the link
  // has finished serializing the packet (the NIC may then start the next
  // send-ring entry); delivery at the destination happens `link_latency`
  // later.
  void transmit(NodeId src, PacketRef ref, bool host_pkt);

  std::uint64_t packets_delivered() const { return delivered_; }

 private:
  sim::Engine& engine_;
  TraceRecorder& trace_;
  EntityStats& entity_;
  const CostModel& cost_;
  PacketPool& pool_;
  std::vector<std::unique_ptr<sim::Server>> links_;
  std::vector<LinkClient*> clients_;  // per link; null until registered
  Sink sink_;
  std::vector<std::uint8_t> remote_;  // empty unless sharded (1 = off-shard dst)
  RemotePush remote_push_;
  std::uint64_t delivered_{0};

  CounterHandle packets_;  // net.*, one handle per counter name
  CounterHandle bytes_;
  CounterHandle xshard_packets_;
  CounterHandle fault_token_drops_;
  CounterHandle fault_drops_;
  CounterHandle fault_corrupts_;
  CounterHandle fault_delays_;
  CounterHandle fault_dups_;

  // Link serialization has fixed cost, so start_job is never called.
  SimTime start_job(std::uint32_t stage, std::uint64_t arg) override;
  // A link finished serializing a packet.
  void finish_job(std::uint32_t stage, std::uint64_t arg) override;
  // A packet reached its destination after link latency.
  void fire(std::uint64_t arg) override;

  // Applies the fault plan to one serialized packet; schedules 0, 1, or 2
  // deliveries. Called from the link-completion path when fault_.enabled().
  void deliver_with_faults(NodeId src, PacketRef ref);
  void schedule_delivery(PacketRef ref, SimTime extra);

  FaultPlan fault_{};
  std::vector<Rng> fault_rngs_;  // one per injection link
};

}  // namespace nicwarp::hw

// Programmable NIC model (LANai4-class).
//
// The NIC owns a slow processor (every firmware hook serializes on it), a
// bounded send ring in SRAM (the staging window early cancellation scans),
// the host/NIC shared mailbox, and DMA access to the node's I/O bus. All
// traffic in both directions flows through the installed Firmware.
//
// Every staged or in-flight packet lives in the cluster's shared PacketPool;
// the send ring, control queue, retransmit queue, and the reliability
// layer's stored-copy rings are all rings of 8-byte PacketRefs. The
// firmware-facing NicContext interface stays value/reference-typed — refs
// are acquired and released at those boundaries.
#pragma once

#include <memory>
#include <vector>

#include "core/entity_stats.hpp"
#include "core/flat_ring.hpp"
#include "core/latency.hpp"
#include "core/ring_buffer.hpp"
#include "core/stats.hpp"
#include "core/types.hpp"
#include "hw/cost_model.hpp"
#include "hw/firmware.hpp"
#include "hw/mailbox.hpp"
#include "hw/network.hpp"
#include "hw/packet_pool.hpp"
#include "sim/engine.hpp"
#include "sim/server.hpp"

namespace nicwarp::hw {

// Owns its nic.cpu jobs (host tx hook, the three wire-tx stages, net rx
// hook) and the rx DMA over the node's bus, and is the client of its own
// injection link.
class Nic final : public NicContext, private sim::Owner, private LinkClient {
 public:
  // `bus` is the node's I/O bus (shared with host-side tx DMA). `trace`,
  // `latency`, and `entity` may be null (tests); records then go to
  // never-enabled sinks.
  Nic(sim::Engine& engine, StatsRegistry& stats, const CostModel& cost, NodeId id,
      std::uint32_t world_size, Network& network, sim::Server& bus, PacketPool& pool,
      std::unique_ptr<Firmware> firmware, TraceRecorder* trace = nullptr,
      LatencyRecorder* latency = nullptr, EntityStats* entity = nullptr);

  // Server jobs and the link client registration hold `this`.
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  // ----- host-facing interface (called from Node / comm layer) -----

  // True if a send-ring slot can be reserved for one more host packet.
  bool tx_slot_available() const;
  // Reserves a slot; precondition tx_slot_available().
  void reserve_tx_slot();
  // Hands a pooled packet to the NIC (DMA already accounted by the caller);
  // runs the on_host_tx hook and stages or discards the packet.
  void accept_from_host(PacketRef ref) { nic_cpu_.submit_dynamic(*this, kHostTx, ref.bits()); }

  // Called with every packet that completed rx DMA to the host. Set by Node.
  void set_host_deliver(std::function<void(PacketRef)> fn) {
    host_deliver_ = std::move(fn);
  }
  // Invoked whenever a reserved slot is released (drop or wire completion).
  void set_tx_slot_freed(std::function<void()> fn) { tx_slot_freed_ = std::move(fn); }

  // ----- network-facing interface (called by the Cluster's sink) -----
  void receive_from_net(PacketRef ref);

  // ----- NicContext (firmware services) -----
  NodeId node_id() const override { return id_; }
  std::uint32_t world_size() const override { return world_size_; }
  SimTime now() const override { return engine_.now(); }
  const CostModel& cost() const override { return cost_; }
  Mailbox& mailbox() override { return mailbox_; }
  StatsRegistry& stats() override { return stats_; }
  TraceRecorder& trace() override { return trace_; }
  LatencyRecorder& latency() { return latency_; }
  EntityStats& entity() override { return entity_; }
  std::size_t send_ring_size() const override { return send_ring_.size(); }
  const Packet& send_ring_at(std::size_t i) const override;
  Packet& send_ring_mutable_at(std::size_t i) override;
  Packet drop_from_send_ring(std::size_t i) override;
  void emit(Packet pkt) override;
  void deliver_to_host(Packet pkt) override;
  void schedule(SimTime delay, SmallFn<SimTime(), 64> fn) override;

  Firmware& firmware() { return *firmware_; }
  std::size_t slots_in_use() const { return slots_in_use_; }

 private:
  // Job stages. The three wire-tx stages name the queue the packet came from.
  enum Stage : std::uint32_t {
    kHostTx,      // on_host_tx hook, then stage in the send ring or discard
    kWireTxHost,  // on_wire_tx hook for a send-ring packet, then transmit
    kWireTxCtrl,  // on_wire_tx hook for NIC-generated control traffic
    kWireTxRetx,  // stored-copy replay: no hook, fixed nic_retx_us
    kNetRx,       // reliability filter + on_net_rx hook, then rx DMA or drop
    kRxDma,       // bus transfer to host memory, then host_deliver_
  };
  SimTime start_job(std::uint32_t stage, std::uint64_t arg) override;
  void finish_job(std::uint32_t stage, std::uint64_t arg) override;
  void on_link_free(bool host_pkt) override;

  void finish_host_tx(PacketRef ref);
  void pump_tx();
  void deliver_ref_to_host(PacketRef ref);

  // ----- reliability sublayer (active only when cost().rel_enabled) -----
  // Sits below the firmware hooks: a received packet passes CRC verification
  // and the go-back-N accept filter before any firmware sees it, so the GVT
  // message counters and the cancellation unit observe every logical message
  // exactly once even when the fabric drops, duplicates, or reorders copies.
  //
  // Per tx channel (this node -> dst) the NIC keeps the unacked sequenced
  // packets in a bounded retransmit ring plus the *exact* set of sequence
  // numbers it intentionally voided (early cancellation). At first wire
  // departure each packet is stamped with the cumulative void count below its
  // own seq — an immutable value, since the send ring is FIFO: every void of
  // a lower seq has already happened by the time a packet departs. The
  // receiver can then distinguish an intentional gap (gap == void delta:
  // accept) from fabric loss (gap > void delta: NAK + go-back-N replay).
  struct RelTx {
    FlatRing<PacketRef> ring;        // unacked sequenced packets, seq order
    FlatRing<std::uint64_t> voided;  // intentionally voided seqs, sorted
    std::uint64_t voids_retired{0};  // voided seqs pruned below the ack floor
    std::int64_t backoff{1};         // RTO multiplier (exponential, capped)
    SimTime last_event{SimTime::zero()};  // last ack progress / retransmit
    SimTime last_retx{SimTime::zero()};
  };
  struct RelRx {
    std::uint64_t expected_seq{1};
    std::uint64_t voids_seen{0};  // void_cum of the last accepted packet
    SimTime last_nak{SimTime{-1}};
  };

  // Records an intentional drop of a sequenced packet (never retransmitted;
  // its seq becomes an explained gap for the receiver).
  void rel_record_void(NodeId dst, std::uint64_t seq);
  // Retires ring entries below the peer's cumulative ack.
  void rel_on_ack(NodeId from, std::uint64_t ack);
  // Replays every unacked packet to `dst` (rate-limited unless `force`).
  void rel_go_back_n(NodeId dst, bool force);
  // CRC + ack + sequence filter; false == the NIC consumed the packet.
  bool rel_rx_process(Packet& pkt, SimTime& cost);
  // Rate-limited kNak carrying our expected_seq for the channel to -> us.
  void rel_send_status(NodeId to);
  // Stamps void_cum (+ stored ring copy) on first departures, then ack + CRC.
  void rel_stamp_outgoing(PacketRef ref, bool first_departure);
  void arm_rel_timer();
  void rel_check_timeouts();

  sim::Engine& engine_;
  StatsRegistry& stats_;
  TraceRecorder& trace_;
  LatencyRecorder& latency_;
  EntityStats& entity_;
  const CostModel& cost_;
  NodeId id_;
  std::uint32_t world_size_;
  Network& network_;
  sim::Server& bus_;
  PacketPool& pool_;
  std::unique_ptr<Firmware> firmware_;
  sim::Server nic_cpu_;

  Mailbox mailbox_;
  RingBuffer<PacketRef> send_ring_;   // host event traffic, FIFO, bounded SRAM
  FlatRing<PacketRef> ctrl_queue_;    // NIC-generated control traffic (priority)
  FlatRing<PacketRef> retx_queue_;    // reliability replays (top wire priority)
  std::size_t slots_in_use_{0};       // reserved + staged + on-wire host packets
  bool tx_busy_{false};
  // Hook verdict carried from a nic_cpu_ job's start_job to its finish_job.
  // Safe as a single member: the FIFO server strictly pairs them (the next
  // job only starts after the previous one finished).
  Firmware::Action pending_action_{Firmware::Action::kForward};

  std::vector<RelTx> rel_tx_;  // indexed by destination node
  std::vector<RelRx> rel_rx_;  // indexed by source node
  bool rel_timer_armed_{false};

  std::function<void(PacketRef)> host_deliver_;
  std::function<void()> tx_slot_freed_;

  CounterHandle ring_drops_;  // nic.*, one handle per counter name
  CounterHandle emitted_;
  CounterHandle retransmits_;
  CounterHandle rel_crc_discards_;
  CounterHandle rel_dup_discards_;
  CounterHandle rel_gap_discards_;
  CounterHandle naks_sent_;
  CounterHandle retx_evicted_;
  CounterHandle retx_timeouts_;
};

}  // namespace nicwarp::hw

// Host-side messaging stack: an MPICH-like eager layer with credit-based
// flow control running over a BIP-like sequenced link layer (§3.2 of the
// paper describes both and the ways NIC-level packet dropping breaks them).
//
// Responsibilities:
//  * per-destination send credits (window `mpi_credit_window`); senders with
//    no credit stage messages until credits return;
//  * credit return, piggybacked on reverse traffic (`credits_pb`) or via an
//    explicit kCreditUpdate when reverse traffic is absent;
//  * per-channel BIP sequence numbers on host-originated packets; the
//    receiver detects gaps (which, on a FIFO fabric, prove intentional NIC
//    drops) and — when credit repair is enabled — returns the dropped
//    packets' credits so the sender's window does not leak shut;
//  * staging for NIC send-ring backpressure.
//
// Channel state is flat per-node vectors (node count is fixed at testbed
// build) and staged packets are PacketRefs into the cluster's shared pool,
// so the send path performs no hashing and no per-packet allocation.
// Channels additionally record first-touch activation order: the periodic
// sweeps (credit-return timer, stall prober) walk it newest-first, which is
// the iteration order the previous unordered_map gave them — credit-update
// emission order, and therefore every downstream byte, is unchanged.
//
// All calls happen in host-CPU task context; the *caller* charges the
// per-message host CPU cost (the kernel's dynamic task costing does this).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/flat_ring.hpp"
#include "core/latency.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"
#include "hw/node.hpp"
#include "hw/packet.hpp"
#include "hw/packet_pool.hpp"

namespace nicwarp::comm {

struct CommOptions {
  // §3.2's repair of flow control under NIC drops (ablation A2). When off,
  // dropped packets leak credits until the costly resync timeout fires.
  bool credit_repair = true;
  // Credits owed to a quiet peer are returned by timer after this long even
  // below the batching threshold — without it, a sender whose last packets
  // were NIC-dropped can stall forever once traffic quiesces.
  double credit_return_timeout_us = 200.0;
  // Liveness fallback when credit repair is off: after this long with
  // staged traffic and a closed window, the sender performs an expensive
  // resynchronization with the receiver (models an MPICH timeout path).
  double credit_timeout_us = 5000.0;
};

class HostComm {
 public:
  HostComm(hw::Node& node, CommOptions opts = {});

  // Hands a logical packet to the stack. May transmit immediately, or stage
  // it behind flow control / NIC backpressure. Per-destination FIFO order is
  // preserved.
  void send(hw::Packet pkt);
  // Same, for a packet already in the node's pool; takes ownership of `ref`.
  void send(hw::PacketRef ref);

  // Upcall for every application-level packet (events, GVT control…) that
  // clears the stack; runs in host-task context.
  void set_deliver(std::function<void(hw::Packet)> fn) { deliver_ = std::move(fn); }

  // Messages currently staged (either for credits or for a NIC slot).
  std::size_t staged() const;

  // Minimum receive timestamp over staged *event* messages (inf if none).
  // GVT estimation must fold this in: a credit-stalled event is invisible to
  // both host LVT and wire-level accounting.
  VirtualTime min_staged_event_ts() const;

  // Sender-side credits currently available toward `dst` (test hook).
  std::int64_t credits_for(NodeId dst) const;

  // The local NIC dropped `n` of our packets to `dst` in place (early
  // cancellation). They never reached the wire, so their credits come
  // straight back — the paper's "NIC keeps track of credit from dropped
  // packets". Without this, a channel whose final in-window packets are
  // dropped wedges shut forever (no later packet reveals the gap).
  void refund_credits(NodeId dst, std::int64_t n);

  // Debug: prints per-channel credit/staging state to stderr.
  void dump_state() const;

  // Credit-conservation checker (the window is a fixed token supply): for
  // the channel sender -> receiver,
  //
  //   credits + (consumed - refunded - accepted) + owed
  //           + (returned - granted) + clamped == window
  //
  // i.e. every credit is either held by the sender, attached to an event in
  // flight, owed at the receiver, riding a return update, or was destroyed
  // by a documented clamp. The identity holds at every host-task boundary;
  // a channel that took the emergency resync path (which mints a fresh
  // window) is skipped. Aborts via NW_CHECK on violation.
  static void check_invariants(const HostComm& sender, const HostComm& receiver);

 private:
  struct ChannelTx {  // per destination
    bool touched{false};  // channel state ever created (was: map entry exists)
    bool opened{false};
    std::int64_t credits{0};
    std::int64_t consumed_total{0};
    std::int64_t granted_total{0};
    std::int64_t refunded_total{0};
    std::int64_t clamped_total{0};  // credits destroyed by window clamps
    std::uint64_t next_seq{1};
    FlatRing<hw::PacketRef> credit_waiting;
    SimTime stall_since{SimTime::max()};
    // Emergency resync bookkeeping (bounded-retry recovery path).
    std::int64_t resync_attempts{0};
    bool resynced{false};  // ever took the resync path (breaks conservation)
    SimTime next_resync_ok{SimTime::zero()};
  };
  struct ChannelRx {  // per source
    bool touched{false};
    std::uint64_t expected_seq{1};
    std::int64_t credits_owed{0};  // consumed but not yet returned
    std::int64_t returned_total{0};
    std::int64_t accepted_total{0};  // event packets that cleared the stack
  };

  // Channel accessors at every site the old code did `tx_[id]` / `rx_[id]`:
  // first touch appends to the activation-order list.
  ChannelTx& tx_at(NodeId dst);
  ChannelRx& rx_at(NodeId src);

  void on_raw_rx(hw::PacketRef ref);
  void send_ref(hw::PacketRef ref);   // credit-check a pooled packet
  void dispatch(hw::PacketRef ref);   // stamp seq/credits and go to the NIC
  void pump_nic_queue();
  void pump_credit_queue(NodeId dst);
  void maybe_return_credits(NodeId src);
  void send_credit_update(NodeId src);
  void arm_credit_timer();
  void grant_credits(NodeId src, std::int64_t n);
  void check_stalls();
  bool is_sequenced(const hw::Packet& pkt) const;

  hw::Node& node_;
  CommOptions opts_;
  TraceRecorder& trace_;
  LatencyRecorder& latency_;
  hw::PacketPool& pool_;
  std::int64_t window_;
  std::vector<ChannelTx> tx_;  // indexed by destination node
  std::vector<ChannelRx> rx_;  // indexed by source node
  // First-touch activation order; periodic sweeps iterate these newest-first
  // (the predecessor unordered_map's iteration order for distinct buckets).
  std::vector<NodeId> tx_order_;
  std::vector<NodeId> rx_order_;
  FlatRing<hw::PacketRef> nic_waiting_;  // credit already consumed, NIC busy
  std::function<void(hw::Packet)> deliver_;
  bool stall_probe_scheduled_{false};
  bool credit_timer_armed_{false};

  CounterHandle credit_stalls_;  // comm.*, one handle per counter name
  CounterHandle nic_backpressure_;
  CounterHandle credit_clamped_;
  CounterHandle credit_msgs_;
  CounterHandle seq_gaps_;
  CounterHandle credit_resync_exhausted_;
  CounterHandle credit_resyncs_;
  CounterHandle credit_clamped_refund_;
  CounterHandle credits_refunded_;
};

}  // namespace nicwarp::comm

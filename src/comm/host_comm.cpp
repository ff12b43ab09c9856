#include "comm/host_comm.hpp"

#include <algorithm>

#include "core/assert.hpp"
#include "core/log.hpp"

namespace nicwarp::comm {

HostComm::HostComm(hw::Node& node, CommOptions opts)
    : node_(node),
      opts_(opts),
      trace_(node.trace()),
      latency_(node.latency()),
      pool_(node.pool()),
      window_(node.cost().mpi_credit_window),
      credit_stalls_(node.stats(), "comm.credit_stalls"),
      nic_backpressure_(node.stats(), "comm.nic_backpressure"),
      credit_clamped_(node.stats(), "comm.credit_clamped"),
      credit_msgs_(node.stats(), "comm.credit_msgs"),
      seq_gaps_(node.stats(), "comm.seq_gaps"),
      credit_resync_exhausted_(node.stats(), "comm.credit_resync_exhausted"),
      credit_resyncs_(node.stats(), "comm.credit_resyncs"),
      credit_clamped_refund_(node.stats(), "comm.credit_clamped_refund"),
      credits_refunded_(node.stats(), "comm.credits_refunded") {
  tx_.resize(node.world_size());
  rx_.resize(node.world_size());
  node_.set_raw_rx([this](hw::PacketRef ref) { on_raw_rx(ref); });
  node_.set_tx_ready_cb([this] { pump_nic_queue(); });
}

HostComm::ChannelTx& HostComm::tx_at(NodeId dst) {
  NW_CHECK(dst < tx_.size());
  ChannelTx& ch = tx_[dst];
  if (!ch.touched) {
    ch.touched = true;
    tx_order_.push_back(dst);
  }
  return ch;
}

HostComm::ChannelRx& HostComm::rx_at(NodeId src) {
  NW_CHECK(src < rx_.size());
  ChannelRx& ch = rx_[src];
  if (!ch.touched) {
    ch.touched = true;
    rx_order_.push_back(src);
  }
  return ch;
}

bool HostComm::is_sequenced(const hw::Packet& pkt) const {
  switch (pkt.hdr.kind) {
    case hw::PacketKind::kEvent:
    case hw::PacketKind::kHostGvtToken:
    case hw::PacketKind::kPGvtReport:
    case hw::PacketKind::kPGvtRequest:
    case hw::PacketKind::kAck:
      return true;
    case hw::PacketKind::kGvtBroadcast:
    case hw::PacketKind::kCreditUpdate:
      // On an unreliable fabric these ride the sequenced stream too: a lost
      // credit return must be replayed or the window leaks shut, and a lost
      // host GVT broadcast would strand peers after the root stops. The
      // NIC's exactly-once accept then makes duplicated credit grants
      // idempotent per seq.
      return node_.cost().rel_enabled;
    case hw::PacketKind::kNicGvtToken:
    case hw::PacketKind::kNak:
      return false;  // NIC-generated traffic never joins the BIP stream
  }
  return false;
}

void HostComm::send(hw::Packet pkt) { send(pool_.acquire(std::move(pkt))); }

void HostComm::send(hw::PacketRef ref) {
  hw::PacketHeader& hdr = pool_.get(ref).hdr;
  NW_CHECK_MSG(hdr.dst != node_.id(), "local delivery must bypass HostComm");
  hdr.src = node_.id();
  // Latency pipeline origin: stamped before any staging/backpressure so the
  // delivery histogram includes credit-stall and NIC-queue time.
  if (hdr.kind == hw::PacketKind::kEvent && latency_.enabled()) {
    hdr.sent_at = node_.engine().now();
  }
  send_ref(ref);
}

void HostComm::send_ref(hw::PacketRef ref) {
  ScopedPhaseTimer phase_scope(&node_.phases(), Phase::kCommPump);
  hw::Packet& pkt = pool_.get(ref);
  ChannelTx& ch = tx_at(pkt.hdr.dst);
  if (!ch.opened) {  // first contact with this peer: the window opens full
    ch.opened = true;
    ch.credits = window_;
  }
  // Only event-class traffic consumes credits; tiny control packets ride the
  // dedicated control path (as MPICH's internal packets do).
  const bool needs_credit = pkt.hdr.kind == hw::PacketKind::kEvent;
  if (needs_credit) {
    if (ch.credits == 0) {
      if (trace_.enabled(TraceCat::kCredit)) {
        trace_.record({node_.engine().now(), pkt.hdr.recv_ts, TraceCat::kCredit,
                       TracePoint::kCreditStall, pkt.hdr.negative, node_.id(),
                       pkt.hdr.dst, pkt.hdr.event_id,
                       static_cast<std::uint64_t>(ch.credit_waiting.size() + 1), 0});
      }
      ch.credit_waiting.push_back(ref);
      if (ch.stall_since == SimTime::max()) ch.stall_since = node_.engine().now();
      credit_stalls_.add(1);
      if (node_.entity().enabled()) {
        node_.entity().record_credit_stall(node_.id());
        node_.entity().note_link_queue_depth(node_.id(), pkt.hdr.dst,
                                             ch.credit_waiting.size());
      }
      check_stalls();
      return;
    }
    --ch.credits;
    ++ch.consumed_total;
  }
  dispatch(ref);
}

void HostComm::dispatch(hw::PacketRef ref) {
  hw::Packet& pkt = pool_.get(ref);
  ChannelTx& ch = tx_at(pkt.hdr.dst);
  if (is_sequenced(pkt)) pkt.hdr.bip_seq = ch.next_seq++;
  // NOTE: credit returns deliberately do NOT piggyback on event packets --
  // the cancellation firmware may drop those in place, and credits riding a
  // dropped packet would leak irrecoverably. Returns travel only on
  // dedicated kCreditUpdate packets, which the NIC never drops.
  if (node_.nic_tx_ready() && nic_waiting_.empty()) {
    node_.dma_to_nic(ref);
  } else {
    nic_waiting_.push_back(ref);
    nic_backpressure_.add(1);
  }
}

void HostComm::pump_nic_queue() {
  while (!nic_waiting_.empty() && node_.nic_tx_ready()) {
    node_.dma_to_nic(nic_waiting_.pop_front());
  }
}

void HostComm::pump_credit_queue(NodeId dst) {
  ChannelTx& ch = tx_at(dst);
  while (!ch.credit_waiting.empty() && ch.credits > 0) {
    const hw::PacketRef ref = ch.credit_waiting.pop_front();
    --ch.credits;
    ++ch.consumed_total;
    dispatch(ref);
  }
  if (ch.credit_waiting.empty()) {
    ch.stall_since = SimTime::max();
    // The channel recovered; a future stall starts a fresh retry budget.
    ch.resync_attempts = 0;
    ch.next_resync_ok = SimTime::zero();
  }
}

void HostComm::grant_credits(NodeId src, std::int64_t n) {
  if (n <= 0) return;
  ChannelTx& ch = tx_at(src);
  if (!ch.opened) {
    ch.opened = true;
    ch.credits = window_;  // peer contacted us first; open our window lazily
    pump_credit_queue(src);
    return;  // a fresh window already covers anything owed
  }
  ch.credits += n;
  ch.granted_total += n;
  if (ch.credits > window_) {
    credit_clamped_.add(ch.credits - window_);
    ch.clamped_total += ch.credits - window_;
    ch.credits = window_;  // clamp against repair races
  }
  if (trace_.enabled(TraceCat::kCredit)) {
    trace_.record({node_.engine().now(), VirtualTime::inf(), TraceCat::kCredit,
                   TracePoint::kCreditGrant, false, node_.id(), src, kInvalidEvent,
                   static_cast<std::uint64_t>(n),
                   static_cast<std::uint64_t>(ch.credits)});
  }
  pump_credit_queue(src);
}

void HostComm::send_credit_update(NodeId src) {
  ChannelRx& rxch = rx_at(src);
  if (rxch.credits_owed <= 0) return;
  hw::Packet cr;
  cr.hdr.kind = hw::PacketKind::kCreditUpdate;
  cr.hdr.dst = src;
  cr.hdr.size_bytes = static_cast<std::uint32_t>(node_.cost().credit_msg_bytes);
  cr.hdr.credits_pb = static_cast<std::uint32_t>(rxch.credits_owed);
  rxch.returned_total += rxch.credits_owed;
  rxch.credits_owed = 0;
  credit_msgs_.add(1);
  if (trace_.enabled(TraceCat::kCredit)) {
    trace_.record({node_.engine().now(), VirtualTime::inf(), TraceCat::kCredit,
                   TracePoint::kCreditUpdateSent, false, node_.id(), src,
                   kInvalidEvent, cr.hdr.credits_pb, 0});
  }
  send(std::move(cr));
}

void HostComm::maybe_return_credits(NodeId src) {
  // Without reverse traffic to piggyback on, return credits explicitly once
  // half the window has accumulated; a timer covers the quiescent tail.
  if (rx_at(src).credits_owed >= window_ / 2) {
    send_credit_update(src);
  } else {
    arm_credit_timer();
  }
}

void HostComm::arm_credit_timer() {
  if (credit_timer_armed_) return;
  credit_timer_armed_ = true;
  node_.engine().schedule(SimTime::from_us(opts_.credit_return_timeout_us), [this] {
    credit_timer_armed_ = false;
    bool more = false;
    // Newest-activated channel first — see the activation-order note in the
    // header; the emission order here is observable in traces and timing.
    for (std::size_t i = rx_order_.size(); i > 0; --i) {
      const NodeId src = rx_order_[i - 1];
      if (rx_[src].credits_owed > 0) {
        send_credit_update(src);
        more = true;
      }
    }
    if (more) arm_credit_timer();
  });
}

void HostComm::on_raw_rx(hw::PacketRef ref) {
  ScopedPhaseTimer phase_scope(&node_.phases(), Phase::kCommPump);
  const NodeId src = pool_.get(ref).hdr.src;
  // 1. Credits returned to us (piggybacked on anything).
  if (pool_.get(ref).hdr.credits_pb > 0) {
    grant_credits(src, pool_.get(ref).hdr.credits_pb);
  }

  const hw::Packet& pkt = pool_.get(ref);
  // 2. BIP sequencing / drop detection.
  if (is_sequenced(pkt) && pkt.hdr.bip_seq != 0) {
    ChannelRx& rxch = rx_at(src);
    NW_CHECK_MSG(pkt.hdr.bip_seq >= rxch.expected_seq,
                 "BIP sequence moved backwards on a FIFO fabric");
    const std::uint64_t gap = pkt.hdr.bip_seq - rxch.expected_seq;
    if (gap > 0) {
      // On a FIFO fabric a gap proves the sender's NIC dropped packets in
      // place (early cancellation). Repair the sender's credit accounting.
      // Detection only: the credits themselves are refunded at the sender
      // (refund_credits), keeping the accounting exact.
      seq_gaps_.add(static_cast<std::int64_t>(gap));
      if (trace_.enabled(TraceCat::kCredit)) {
        trace_.record({node_.engine().now(), VirtualTime::inf(), TraceCat::kCredit,
                       TracePoint::kSeqGap, false, node_.id(), src, kInvalidEvent,
                       gap, pkt.hdr.bip_seq});
      }
    }
    rxch.expected_seq = pkt.hdr.bip_seq + 1;
  }

  // 3. Credit consumption accounting for event traffic.
  if (pkt.hdr.kind == hw::PacketKind::kEvent) {
    ChannelRx& rxch = rx_at(src);
    rxch.credits_owed += 1;
    rxch.accepted_total += 1;
    maybe_return_credits(src);
  }

  // 4. Pure credit packets are consumed here.
  if (pkt.hdr.kind == hw::PacketKind::kCreditUpdate) {
    pool_.release(ref);
    return;
  }

  NW_CHECK_MSG(deliver_ != nullptr, "no deliver handler installed");
  deliver_(pool_.take(ref));
}

void HostComm::check_stalls() {
  // The resync path runs when repair is off (credits leak by design, A2
  // ablation) and, as a bounded-retry backstop, on an unreliable fabric
  // (where it should never actually fire if the NIC recovery works).
  const bool recovery_active = !opts_.credit_repair || node_.cost().rel_enabled;
  if (!recovery_active || stall_probe_scheduled_) return;
  stall_probe_scheduled_ = true;
  node_.engine().schedule(SimTime::from_us(opts_.credit_timeout_us), [this] {
    stall_probe_scheduled_ = false;
    bool still_stalled = false;
    // Newest-activated channel first (predecessor map order); resync order
    // across channels is observable through host-task timing.
    for (std::size_t i = tx_order_.size(); i > 0; --i) {
      const NodeId dst = tx_order_[i - 1];
      ChannelTx& ch = tx_[dst];
      if (!ch.credit_waiting.empty() &&
          node_.engine().now() - ch.stall_since >=
              SimTime::from_us(opts_.credit_timeout_us) &&
          node_.engine().now() >= ch.next_resync_ok) {
        if (ch.resync_attempts >= node_.cost().credit_resync_max_retries) {
          // Bounded: give up on this channel and leave the evidence in the
          // stats rather than resyncing forever against a broken peer.
          credit_resync_exhausted_.add(1);
          continue;
        }
        credit_resyncs_.add(1);
        if (trace_.enabled(TraceCat::kCredit)) {
          trace_.record({node_.engine().now(), VirtualTime::inf(), TraceCat::kCredit,
                         TracePoint::kCreditResync, false, node_.id(), dst,
                         kInvalidEvent,
                         static_cast<std::uint64_t>(ch.credit_waiting.size()),
                         static_cast<std::uint64_t>(ch.resync_attempts)});
        }
        // Resynchronize: recover the full window after a costly host-side
        // timeout handler. Retries back off exponentially.
        node_.run_host_task(node_.cost().us(node_.cost().host_msg_recv_us * 4), nullptr);
        ch.resynced = true;
        ch.next_resync_ok =
            node_.engine().now() +
            SimTime::from_us(opts_.credit_timeout_us *
                             static_cast<double>(std::int64_t{1}
                                                 << std::min<std::int64_t>(
                                                        ch.resync_attempts, 16)));
        ++ch.resync_attempts;
        ch.credits = window_;
        pump_credit_queue(dst);
      }
      still_stalled |= !ch.credit_waiting.empty();
    }
    if (still_stalled) check_stalls();
  });
}

void HostComm::check_invariants(const HostComm& sender, const HostComm& receiver) {
  const NodeId dst = receiver.node_.id();
  if (dst >= sender.tx_.size()) return;
  const ChannelTx& tx = sender.tx_[dst];
  if (!tx.touched || !tx.opened) return;
  if (tx.resynced) return;  // the emergency path mints credits by design

  std::int64_t accepted = 0, owed = 0, returned = 0;
  const NodeId src = sender.node_.id();
  if (src < receiver.rx_.size() && receiver.rx_[src].touched) {
    accepted = receiver.rx_[src].accepted_total;
    owed = receiver.rx_[src].credits_owed;
    returned = receiver.rx_[src].returned_total;
  }
  const std::int64_t in_flight = tx.consumed_total - tx.refunded_total - accepted;
  const std::int64_t returning = returned - tx.granted_total;
  NW_CHECK_MSG(tx.credits >= 0 && tx.credits <= sender.window_,
               "credit balance outside [0, window]");
  NW_CHECK_MSG(in_flight >= 0, "more events accepted than consumed credits");
  NW_CHECK_MSG(returning >= 0, "more credits granted than the receiver returned");
  NW_CHECK_MSG(owed >= 0, "negative credits owed");
  NW_CHECK_MSG(tx.credits + in_flight + owed + returning + tx.clamped_total ==
                   sender.window_,
               "credit conservation violated: window leaked open or shut");
}

void HostComm::refund_credits(NodeId dst, std::int64_t n) {
  if (!opts_.credit_repair || n <= 0) return;
  ChannelTx& ch = tx_at(dst);
  ch.credits += n;
  ch.refunded_total += n;
  if (ch.credits > window_) {
    credit_clamped_refund_.add(ch.credits - window_);
    ch.clamped_total += ch.credits - window_;
    ch.credits = window_;
  }
  credits_refunded_.add(n);
  if (trace_.enabled(TraceCat::kCredit)) {
    trace_.record({node_.engine().now(), VirtualTime::inf(), TraceCat::kCredit,
                   TracePoint::kCreditRefund, false, node_.id(), dst, kInvalidEvent,
                   static_cast<std::uint64_t>(n),
                   static_cast<std::uint64_t>(ch.credits)});
  }
  pump_credit_queue(dst);
}

void HostComm::dump_state() const {
  for (const NodeId dst : tx_order_) {
    const ChannelTx& ch = tx_[dst];
    std::fprintf(stderr,
                 "  node%u->%u credits=%lld staged=%zu consumed=%lld granted=%lld refunded=%lld\n",
                 node_.id(), dst, (long long)ch.credits, ch.credit_waiting.size(),
                 (long long)ch.consumed_total, (long long)ch.granted_total,
                 (long long)ch.refunded_total);
  }
  for (const NodeId src : rx_order_) {
    const ChannelRx& ch = rx_[src];
    std::fprintf(stderr, "  node%u<-%u expected_seq=%llu owed=%lld returned=%lld\n",
                 node_.id(), src, (unsigned long long)ch.expected_seq,
                 (long long)ch.credits_owed, (long long)ch.returned_total);
  }
  std::fprintf(stderr, "  node%u nic_waiting=%zu\n", node_.id(), nic_waiting_.size());
}

std::size_t HostComm::staged() const {
  std::size_t n = nic_waiting_.size();
  for (const NodeId dst : tx_order_) n += tx_[dst].credit_waiting.size();
  return n;
}

VirtualTime HostComm::min_staged_event_ts() const {
  VirtualTime m = VirtualTime::inf();
  auto fold = [&m, this](hw::PacketRef ref) {
    const hw::Packet& p = pool_.get(ref);
    if (p.hdr.kind == hw::PacketKind::kEvent) m = VirtualTime::min(m, p.hdr.recv_ts);
  };
  for (std::size_t i = 0; i < nic_waiting_.size(); ++i) fold(nic_waiting_.at(i));
  for (const NodeId dst : tx_order_) {
    const FlatRing<hw::PacketRef>& q = tx_[dst].credit_waiting;
    for (std::size_t i = 0; i < q.size(); ++i) fold(q.at(i));
  }
  return m;
}

std::int64_t HostComm::credits_for(NodeId dst) const {
  if (dst >= tx_.size() || !tx_[dst].touched) return window_;
  return tx_[dst].credits;
}

}  // namespace nicwarp::comm

#include "hw/nic.hpp"

#include <algorithm>

#include "core/assert.hpp"

namespace nicwarp::hw {

Nic::Nic(sim::Engine& engine, StatsRegistry& stats, const CostModel& cost, NodeId id,
         std::uint32_t world_size, Network& network, sim::Server& bus, PacketPool& pool,
         std::unique_ptr<Firmware> firmware, TraceRecorder* trace,
         LatencyRecorder* latency, EntityStats* entity)
    : engine_(engine),
      stats_(stats),
      trace_(trace ? *trace : TraceRecorder::null_recorder()),
      latency_(latency ? *latency : LatencyRecorder::null_recorder()),
      entity_(entity ? *entity : EntityStats::null_stats()),
      cost_(cost),
      id_(id),
      world_size_(world_size),
      network_(network),
      bus_(bus),
      pool_(pool),
      firmware_(std::move(firmware)),
      nic_cpu_(engine, "nic" + std::to_string(id) + ".cpu", &stats),
      ring_drops_(stats, "nic.ring_drops"),
      emitted_(stats, "nic.emitted"),
      retransmits_(stats, "nic.retransmits"),
      rel_crc_discards_(stats, "nic.rel_crc_discards"),
      rel_dup_discards_(stats, "nic.rel_dup_discards"),
      rel_gap_discards_(stats, "nic.rel_gap_discards"),
      naks_sent_(stats, "nic.naks_sent"),
      retx_evicted_(stats, "nic.retx_evicted"),
      retx_timeouts_(stats, "nic.retx_timeouts") {
  NW_CHECK(firmware_ != nullptr);
  send_ring_.reserve(static_cast<std::size_t>(cost_.nic_send_ring_slots));
  rel_tx_.resize(world_size_);
  rel_rx_.resize(world_size_);
  firmware_->attach(*this);
  network_.set_link_client(id_, *this);
}

bool Nic::tx_slot_available() const {
  return slots_in_use_ < static_cast<std::size_t>(cost_.nic_send_ring_slots);
}

void Nic::reserve_tx_slot() {
  NW_CHECK_MSG(tx_slot_available(), "tx slot reservation without availability check");
  ++slots_in_use_;
  if (entity_.enabled()) entity_.note_ring_occupancy(id_, slots_in_use_);
}

SimTime Nic::start_job(std::uint32_t stage, std::uint64_t arg) {
  Packet& pkt = pool_.get(PacketRef::from_bits(arg));
  switch (static_cast<Stage>(stage)) {
    case kHostTx: {
      const Firmware::HookResult r = firmware_->on_host_tx(pkt);
      pending_action_ = r.action;
      return r.cost;
    }
    case kWireTxHost:
    case kWireTxCtrl:
      return firmware_->on_wire_tx(pkt);
    case kWireTxRetx:
      // A replay is a stored-copy DMA out of SRAM; the firmware hooks
      // already ran (and counted) the original, so they must not run again.
      return cost_.us(cost_.nic_retx_us);
    case kNetRx: {
      SimTime rel_cost = SimTime::zero();
      if (cost_.rel_enabled && !rel_rx_process(pkt, rel_cost)) {
        pending_action_ = Firmware::Action::kConsume;
        return rel_cost;
      }
      const Firmware::HookResult r = firmware_->on_net_rx(pkt);
      pending_action_ = r.action;
      return r.cost + rel_cost;
    }
    case kRxDma:
      break;
  }
  NW_UNREACHABLE("NIC job stage without a start hook");
}

void Nic::finish_job(std::uint32_t stage, std::uint64_t arg) {
  const PacketRef ref = PacketRef::from_bits(arg);
  switch (static_cast<Stage>(stage)) {
    case kHostTx:
      finish_host_tx(ref);
      return;
    case kWireTxHost:
    case kWireTxCtrl:
    case kWireTxRetx: {
      const bool host_pkt = stage == kWireTxHost;
      if (cost_.rel_enabled) rel_stamp_outgoing(ref, host_pkt);
      network_.transmit(id_, ref, host_pkt);
      return;
    }
    case kNetRx:
      if (pending_action_ == Firmware::Action::kForward) {
        deliver_ref_to_host(ref);
      } else {
        // kDrop / kConsume: the packet dies on the NIC, saving the bus
        // crossing and the host receive path entirely.
        pool_.release(ref);
      }
      return;
    case kRxDma:
      NW_CHECK(host_deliver_ != nullptr);
      host_deliver_(ref);
      return;
  }
  NW_UNREACHABLE("unknown NIC job stage");
}

void Nic::finish_host_tx(PacketRef ref) {
  const PacketHeader& hdr = pool_.get(ref).hdr;
  switch (pending_action_) {
    case Firmware::Action::kForward:
      if (hdr.kind == PacketKind::kEvent && trace_.enabled(TraceCat::kMsg)) {
        trace_.record({engine_.now(), hdr.recv_ts, TraceCat::kMsg,
                       TracePoint::kNicStage, hdr.negative, id_, hdr.dst,
                       hdr.event_id, send_ring_.size(), 0});
      }
      // slots_in_use_ bounds the ring, so it never outgrows its SRAM.
      NW_CHECK(send_ring_.size() < static_cast<std::size_t>(cost_.nic_send_ring_slots));
      send_ring_.push_back(ref);
      pump_tx();
      break;
    case Firmware::Action::kDrop:
    case Firmware::Action::kConsume:
      if (hdr.kind == PacketKind::kEvent && trace_.enabled(TraceCat::kMsg)) {
        trace_.record({engine_.now(), hdr.recv_ts, TraceCat::kMsg,
                       TracePoint::kNicDropTx, hdr.negative, id_, hdr.dst,
                       hdr.event_id, 0, 0});
      }
      // The packet never reaches the wire; its slot frees immediately.
      rel_record_void(hdr.dst, hdr.bip_seq);
      pool_.release(ref);
      NW_CHECK(slots_in_use_ > 0);
      --slots_in_use_;
      if (tx_slot_freed_) tx_slot_freed_();
      break;
  }
}

const Packet& Nic::send_ring_at(std::size_t i) const {
  return pool_.get(send_ring_.at(i));
}

Packet& Nic::send_ring_mutable_at(std::size_t i) {
  return pool_.get(send_ring_.at(i));
}

Packet Nic::drop_from_send_ring(std::size_t i) {
  const PacketRef ref = send_ring_.remove_at(i);
  Packet out = pool_.take(ref);
  rel_record_void(out.hdr.dst, out.hdr.bip_seq);
  NW_CHECK(slots_in_use_ > 0);
  --slots_in_use_;
  ring_drops_.add(1);
  if (out.hdr.kind == PacketKind::kEvent && trace_.enabled(TraceCat::kMsg)) {
    trace_.record({engine_.now(), out.hdr.recv_ts, TraceCat::kMsg,
                   TracePoint::kNicDropRing, out.hdr.negative, id_, out.hdr.dst,
                   out.hdr.event_id, i, 0});
  }
  if (tx_slot_freed_) tx_slot_freed_();
  return out;
}

void Nic::emit(Packet pkt) {
  // NIC-generated control traffic uses a dedicated SRAM buffer (it does not
  // consume host send-ring slots) and has priority on the wire: the paper's
  // NIC forwards GVT information "whenever it gets a chance".
  pkt.hdr.src = id_;
  pkt.hdr.bip_seq = 0;  // unsequenced: never part of the BIP host stream
  ctrl_queue_.push_back(pool_.acquire(std::move(pkt)));
  emitted_.add(1);
  pump_tx();
}

void Nic::deliver_to_host(Packet pkt) {
  deliver_ref_to_host(pool_.acquire(std::move(pkt)));
}

void Nic::deliver_ref_to_host(PacketRef ref) {
  bus_.submit(cost_.bus_transfer(pool_.get(ref).hdr.size_bytes), *this, kRxDma,
              ref.bits());
}

void Nic::schedule(SimTime delay, SmallFn<SimTime(), 64> fn) {
  engine_.schedule(delay, [this, fn = std::move(fn)]() mutable {
    nic_cpu_.submit_dynamic(std::move(fn), nullptr);
  });
}

void Nic::pump_tx() {
  if (tx_busy_) return;
  // Reliability replays first (they unblock a stalled receiver), then
  // NIC-generated control traffic, then the host send ring.
  PacketRef ref;
  Stage stage;
  if (!retx_queue_.empty()) {
    ref = retx_queue_.pop_front();
    stage = kWireTxRetx;
  } else if (!ctrl_queue_.empty()) {
    ref = ctrl_queue_.pop_front();
    stage = kWireTxCtrl;
  } else if (!send_ring_.empty()) {
    ref = send_ring_.pop_front();
    stage = kWireTxHost;
  } else {
    return;
  }
  tx_busy_ = true;

  const PacketHeader& hdr = pool_.get(ref).hdr;
  if (hdr.kind == PacketKind::kEvent && trace_.enabled(TraceCat::kMsg)) {
    // The last field names the queue: 0 send ring, 1 control, 2 replay.
    const std::uint64_t queue = stage == kWireTxRetx ? 2u : (stage == kWireTxCtrl ? 1u : 0u);
    trace_.record({engine_.now(), hdr.recv_ts, TraceCat::kMsg, TracePoint::kWireTx,
                   hdr.negative, id_, hdr.dst, hdr.event_id, queue, 0});
  }
  nic_cpu_.submit_dynamic(*this, stage, ref.bits());
}

void Nic::on_link_free(bool host_pkt) {
  tx_busy_ = false;
  if (host_pkt) {
    // The SRAM buffer is recycled once the link drained the packet.
    NW_CHECK(slots_in_use_ > 0);
    --slots_in_use_;
    if (tx_slot_freed_) tx_slot_freed_();
  }
  pump_tx();
}

void Nic::receive_from_net(PacketRef ref) {
  const PacketHeader& hdr = pool_.get(ref).hdr;
  if (hdr.kind == PacketKind::kEvent && trace_.enabled(TraceCat::kMsg)) {
    trace_.record({engine_.now(), hdr.recv_ts, TraceCat::kMsg, TracePoint::kNicRx,
                   hdr.negative, id_, hdr.src, hdr.event_id, 0, 0});
  }
  // NIC/link leg of the delivery pipeline: host send -> remote NIC rx.
  // Counts every arriving copy (fault duplicates and replays included) —
  // under chaos that inflation *is* the tail signal.
  if (hdr.kind == PacketKind::kEvent && latency_.enabled() && hdr.sent_at.ns > 0) {
    latency_.record_nic_wire((engine_.now() - hdr.sent_at).micros());
  }
  nic_cpu_.submit_dynamic(*this, kNetRx, ref.bits());
}

// ---------------------------------------------------------------------------
// Reliability sublayer.
// ---------------------------------------------------------------------------

namespace {
// First logical index in `v` (sorted ascending) whose value is >= seq.
std::size_t ring_lower_bound(const FlatRing<std::uint64_t>& v, std::uint64_t seq) {
  std::size_t lo = 0;
  std::size_t hi = v.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (v.at(mid) < seq) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}
}  // namespace

void Nic::rel_record_void(NodeId dst, std::uint64_t seq) {
  if (!cost_.rel_enabled || seq == 0) return;
  // Ring scans can void a higher seq before a lower one (anti/positive
  // pairing is not FIFO within the window), so keep the set sorted.
  auto& v = rel_tx_[dst].voided;
  v.insert_at(ring_lower_bound(v, seq), seq);
}

void Nic::rel_on_ack(NodeId from, std::uint64_t ack) {
  if (ack == 0) return;
  RelTx& tx = rel_tx_[from];
  bool progress = false;
  while (!tx.ring.empty() && pool_.get(tx.ring.front()).hdr.bip_seq < ack) {
    pool_.release(tx.ring.pop_front());
    progress = true;
  }
  // Voids below the ack floor can never be consulted again (future packets
  // all carry higher seqs); fold them into the retired count.
  while (!tx.voided.empty() && tx.voided.front() < ack) {
    tx.voided.pop_front();
    ++tx.voids_retired;
  }
  if (progress) {
    tx.backoff = 1;
    tx.last_event = engine_.now();
  }
}

void Nic::rel_go_back_n(NodeId dst, bool force) {
  RelTx& tx = rel_tx_[dst];
  if (tx.ring.empty()) return;
  if (!force &&
      engine_.now() < tx.last_retx + cost_.us(cost_.rel_nak_holdoff_us)) {
    return;
  }
  tx.last_retx = engine_.now();
  for (std::size_t i = 0; i < tx.ring.size(); ++i) {
    const PacketRef stored = tx.ring.at(i);
    ++pool_.get(stored).hdr.retx_count;
    const PacketRef copy_ref = pool_.clone(stored);
    Packet& copy = pool_.get(copy_ref);
    copy.hdr.rel_ack_pb = rel_rx_[dst].expected_seq;
    copy.hdr.crc = header_crc(copy);
    retransmits_.add(1);
    if (entity_.enabled()) entity_.record_link_retx(id_, dst);
    if (trace_.enabled(TraceCat::kFault)) {
      trace_.record({engine_.now(), copy.hdr.recv_ts, TraceCat::kFault,
                     TracePoint::kRelRetransmit, copy.hdr.negative, id_, dst,
                     copy.hdr.event_id, copy.hdr.bip_seq, copy.hdr.retx_count});
    }
    retx_queue_.push_back(copy_ref);
  }
  pump_tx();
}

bool Nic::rel_rx_process(Packet& pkt, SimTime& cost) {
  const NodeId src = pkt.hdr.src;
  cost = SimTime::zero();
  // 1. Integrity: every packet on a reliability-enabled fabric is stamped, so
  // crc == 0 (clobbered to the unstamped sentinel) is corruption too.
  if (pkt.hdr.crc == 0 || header_crc(pkt) != pkt.hdr.crc) {
    // A corrupt header's ack/seq fields are garbage: do not process them.
    rel_crc_discards_.add(1);
    if (trace_.enabled(TraceCat::kFault)) {
      trace_.record({engine_.now(), VirtualTime::zero(), TraceCat::kFault,
                     TracePoint::kRelCrcDiscard, false, id_, src,
                     kInvalidEvent, pkt.hdr.bip_seq, 0});
    }
    cost = cost_.us(cost_.nic_retx_us);
    return false;
  }
  // 2. Cumulative ack rides on every valid packet, including ones about to
  // be discarded as duplicates.
  rel_on_ack(src, pkt.hdr.rel_ack_pb);
  // 3. A NAK is a pure sequence-status report: the ack above already retired
  // what the receiver has; replay whatever remains.
  if (pkt.hdr.kind == PacketKind::kNak) {
    rel_go_back_n(src, /*force=*/false);
    cost = cost_.us(cost_.nic_retx_us);
    return false;
  }
  // 4. Sequenced stream: exactly-once, in-order accept.
  if (pkt.hdr.bip_seq != 0) {
    RelRx& rx = rel_rx_[src];
    const std::uint64_t seq = pkt.hdr.bip_seq;
    if (seq < rx.expected_seq) {
      rel_dup_discards_.add(1);
      if (trace_.enabled(TraceCat::kFault)) {
        trace_.record({engine_.now(), pkt.hdr.recv_ts, TraceCat::kFault,
                       TracePoint::kRelDupDiscard, pkt.hdr.negative, id_, src,
                       pkt.hdr.event_id, seq, 0});
      }
      rel_send_status(src);  // quench: tells the sender how far we really are
      cost = cost_.us(cost_.nic_retx_us);
      return false;
    }
    const std::uint64_t gap = seq - rx.expected_seq;
    const std::uint64_t void_delta = pkt.hdr.void_cum - rx.voids_seen;
    NW_CHECK_MSG(void_delta <= gap,
                 "void accounting claims more intentional drops than the gap");
    if (void_delta < gap) {
      // Fabric loss (or reordering): the gap is not fully explained by
      // intentional NIC drops. Hold the line and ask for a replay.
      rel_gap_discards_.add(1);
      if (trace_.enabled(TraceCat::kFault)) {
        trace_.record({engine_.now(), pkt.hdr.recv_ts, TraceCat::kFault,
                       TracePoint::kRelGapDiscard, pkt.hdr.negative, id_, src,
                       pkt.hdr.event_id, seq, rx.expected_seq});
      }
      rel_send_status(src);
      cost = cost_.us(cost_.nic_retx_us);
      return false;
    }
    rx.expected_seq = seq + 1;
    rx.voids_seen = pkt.hdr.void_cum;
    // Recovered data: report progress promptly so the sender's ring drains
    // even if we have no reverse traffic of our own.
    if (pkt.hdr.retx_count > 0) rel_send_status(src);
  }
  return true;
}

void Nic::rel_send_status(NodeId to) {
  RelRx& rx = rel_rx_[to];
  if (rx.last_nak.ns >= 0 &&
      engine_.now() < rx.last_nak + cost_.us(cost_.rel_nak_holdoff_us)) {
    return;
  }
  rx.last_nak = engine_.now();
  Packet nak;
  nak.hdr.kind = PacketKind::kNak;
  nak.hdr.dst = to;
  nak.hdr.size_bytes = static_cast<std::uint32_t>(cost_.ack_msg_bytes);
  naks_sent_.add(1);
  if (trace_.enabled(TraceCat::kFault)) {
    trace_.record({engine_.now(), VirtualTime::zero(), TraceCat::kFault,
                   TracePoint::kRelNak, false, id_, to, kInvalidEvent,
                   rx.expected_seq, 0});
  }
  emit(std::move(nak));  // rel_ack_pb is stamped with expected_seq at pump
}

void Nic::rel_stamp_outgoing(PacketRef ref, bool first_departure) {
  Packet& pkt = pool_.get(ref);
  const NodeId dst = pkt.hdr.dst;
  if (first_departure && pkt.hdr.bip_seq != 0) {
    RelTx& tx = rel_tx_[dst];
    // Exact and immutable: the send ring is FIFO, so every void of a lower
    // seq is already recorded; later ring voids all carry higher seqs.
    pkt.hdr.void_cum =
        tx.voids_retired +
        static_cast<std::uint64_t>(ring_lower_bound(tx.voided, pkt.hdr.bip_seq));
    if (tx.ring.size() >=
        static_cast<std::size_t>(cost_.nic_retx_ring_slots)) {
      // SRAM pressure: drop the oldest stored copy. Recovery then depends on
      // it already having been delivered; chaos tests assert this never
      // fires at the default sizing.
      pool_.release(tx.ring.pop_front());
      retx_evicted_.add(1);
    }
    if (tx.ring.empty()) tx.last_event = engine_.now();
    // Stored copy is taken before the ack/crc stamp (a replay re-stamps both
    // at its own departure), exactly like the legacy deque path.
    tx.ring.push_back(pool_.clone(ref));
    arm_rel_timer();
  }
  pkt.hdr.rel_ack_pb = rel_rx_[dst].expected_seq;
  pkt.hdr.crc = header_crc(pkt);
}

void Nic::arm_rel_timer() {
  if (rel_timer_armed_ || !cost_.rel_enabled) return;
  bool any = false;
  for (const RelTx& tx : rel_tx_) {
    if (!tx.ring.empty()) {
      any = true;
      break;
    }
  }
  if (!any) return;  // self-disarming: the engine can drain when idle
  rel_timer_armed_ = true;
  schedule(cost_.us(cost_.rel_poll_us), [this] {
    rel_timer_armed_ = false;
    rel_check_timeouts();
    arm_rel_timer();
    return SimTime::zero();
  });
}

void Nic::rel_check_timeouts() {
  for (NodeId d = 0; d < world_size_; ++d) {
    RelTx& tx = rel_tx_[d];
    if (tx.ring.empty()) continue;
    const SimTime rto =
        cost_.us(cost_.rel_rto_us * static_cast<double>(tx.backoff));
    if (engine_.now() >= tx.last_event + rto) {
      retx_timeouts_.add(1);
      tx.backoff = std::min(tx.backoff * 2, cost_.rel_backoff_max);
      tx.last_event = engine_.now();
      rel_go_back_n(d, /*force=*/true);
    }
  }
}

}  // namespace nicwarp::hw

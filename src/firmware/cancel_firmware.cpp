#include "firmware/cancel_firmware.hpp"

#include "core/assert.hpp"

namespace nicwarp::firmware {

void CancelFirmware::attach(hw::NicContext& ctx) {
  Firmware::attach(ctx);
  dropped_positive_ = CounterHandle(ctx.stats(), "cancel.dropped_positive");
  filtered_anti_ = CounterHandle(ctx.stats(), "cancel.filtered_anti");
  record_overflow_ = CounterHandle(ctx.stats(), "cancel.record_overflow");
}

ObjectId CancelFirmware::record_key(ObjectId obj) const {
  return opts_.lp_scope ? kInvalidObject : obj;
}

bool CancelFirmware::doomed(const hw::PacketHeader& hdr, EventId* cause) const {
  if (hdr.kind != hw::PacketKind::kEvent || hdr.negative) return false;
  auto it = records_.find(record_key(hdr.src_obj));
  if (it == records_.end()) return false;
  for (const AntiRecord& rec : it->second) {
    // Generated before the host processed this anti, and optimistically
    // beyond the rollback point: the host is guaranteed to cancel it.
    if (hdr.send_ts > rec.ta && hdr.anti_counter_pb < rec.k) {
      if (cause != nullptr) *cause = rec.anti_id;
      return true;
    }
  }
  return false;
}

bool CancelFirmware::record_drop(const hw::PacketHeader& hdr, EventId cause_anti) {
  hw::Mailbox& mb = ctx_->mailbox();
  const bool notice_full = mb.drop_notices.size() >= hw::Mailbox::kDropNoticeSoftLimit;
  auto& ring = mb.dropped_ring(hdr.src_obj, ctx_->cost().nic_event_id_ring_slots);
  if (notice_full || !ring.try_push(hdr.event_id)) {
    // The paper's size-10 buffer (or the notice queue) is full: the doomed
    // positive must travel and be cancelled by its anti the slow way.
    if (ctx_->trace().enabled(TraceCat::kCancel)) {
      ctx_->trace().record({ctx_->now(), hdr.recv_ts, TraceCat::kCancel,
                            TracePoint::kCancelOverflow, false, ctx_->node_id(),
                            hdr.dst, hdr.event_id, 0, 0});
    }
    return false;
  }
  mb.drop_notices.push_back(hw::DropNotice{hdr.event_id, hdr.src_obj, hdr.dst,
                                           hdr.color_epoch, hdr.recv_ts,
                                           /*negative=*/false, cause_anti});
  pending_dropped_pb_[hdr.dst] += 1;
  dropped_positive_.add(1);
  if (ctx_->trace().enabled(TraceCat::kCancel)) {
    // b = dooming anti (0 = unknown) so offline analysis can attribute the
    // saving to the cascade that earned it.
    ctx_->trace().record({ctx_->now(), hdr.recv_ts, TraceCat::kCancel,
                          TracePoint::kCancelDropPositive, false, ctx_->node_id(),
                          hdr.dst, hdr.event_id, 0,
                          cause_anti != kInvalidEvent ? cause_anti : 0});
  }
  return true;
}

void CancelFirmware::prune_records(ObjectId obj, std::uint64_t host_counter) {
  auto it = records_.find(obj);
  if (it == records_.end()) return;
  auto& v = it->second;
  std::erase_if(v, [host_counter](const AntiRecord& r) { return host_counter >= r.k; });
  if (v.empty()) records_.erase(it);
}

hw::Firmware::HookResult CancelFirmware::on_host_tx(hw::Packet& pkt) {
  SimTime cost = ctx_->cost().us(ctx_->cost().nic_per_packet_us);
  if (pkt.hdr.kind != hw::PacketKind::kEvent) return {Action::kForward, cost};
  cost += ctx_->cost().us(ctx_->cost().nic_cancel_base_us);

  if (pkt.hdr.negative) {
    // The host emitted an anti whose positive we already dropped in place:
    // filter it (the pair must vanish together). Consumes the ring entry.
    if (ctx_->mailbox().take_dropped(pkt.hdr.src_obj, pkt.hdr.event_id)) {
      hw::Mailbox& mb = ctx_->mailbox();
      if (mb.drop_notices.size() < hw::Mailbox::kMaxDropNotices) {
        mb.drop_notices.push_back(hw::DropNotice{pkt.hdr.event_id, pkt.hdr.src_obj,
                                                 pkt.hdr.dst, pkt.hdr.color_epoch,
                                                 pkt.hdr.recv_ts, /*negative=*/true});
      }
      pending_dropped_pb_[pkt.hdr.dst] += 1;
      filtered_anti_.add(1);
      if (ctx_->trace().enabled(TraceCat::kCancel)) {
        ctx_->trace().record({ctx_->now(), pkt.hdr.recv_ts, TraceCat::kCancel,
                              TracePoint::kCancelFilterAnti, true, ctx_->node_id(),
                              pkt.hdr.dst, pkt.hdr.event_id, /*a=in_ring*/ 0, 0});
      }
      return {Action::kDrop, cost};
    }
    return {Action::kForward, cost};
  }

  // Positive from the host: the piggybacked anti counter tells us whether
  // the host has caught up with our records (prune) or this message was
  // generated pre-anti and is doomed (drop).
  prune_records(record_key(pkt.hdr.src_obj), pkt.hdr.anti_counter_pb);
  EventId cause = kInvalidEvent;
  if (doomed(pkt.hdr, &cause) && record_drop(pkt.hdr, cause)) {
    return {Action::kDrop, cost};
  }
  return {Action::kForward, cost};
}

SimTime CancelFirmware::on_wire_tx(hw::Packet& pkt) {
  // Stamp accumulated drop counts for this destination so its comm layer
  // can reconcile credits even before the BIP gap is observed.
  auto it = pending_dropped_pb_.find(pkt.hdr.dst);
  if (it != pending_dropped_pb_.end() && it->second > 0) {
    pkt.hdr.dropped_pb = it->second;
    it->second = 0;
  }
  return SimTime::zero();
}

SimTime CancelFirmware::scan_send_ring() {
  // Single FIFO-order pass: drop doomed positives, and filter an anti ONLY
  // when a positive with the same id was dropped *earlier in this walk*.
  // Event ids recur across cancel/re-send incarnations of the same logical
  // event; an anti positioned BEFORE a doomed positive in the ring pairs
  // with an earlier incarnation that already reached the wire, and filtering
  // it would leave that delivered positive permanently uncancelled.
  const SimTime cost = ctx_->cost().us(ctx_->cost().nic_cancel_scan_per_entry_us *
                                       static_cast<double>(ctx_->send_ring_size()));
  std::unordered_map<EventId, std::uint32_t> unmatched_drops;
  for (std::size_t i = 0; i < ctx_->send_ring_size();) {
    const hw::Packet& p = ctx_->send_ring_at(i);
    if (p.hdr.kind != hw::PacketKind::kEvent) {
      ++i;
      continue;
    }
    if (!p.hdr.negative) {
      EventId cause = kInvalidEvent;
      if (doomed(p.hdr, &cause) && record_drop(p.hdr, cause)) {
        unmatched_drops[p.hdr.event_id] += 1;
        ctx_->drop_from_send_ring(i);
        continue;  // same index now holds the next packet
      }
      ++i;
      continue;
    }
    // Negative: pair it with an earlier in-walk drop if one is waiting.
    auto it = unmatched_drops.find(p.hdr.event_id);
    if (it != unmatched_drops.end() && it->second > 0) {
      it->second -= 1;
      // Both halves die on the NIC; consume the ring entry (the host no
      // longer needs to suppress anything for this pair).
      ctx_->mailbox().take_dropped(p.hdr.src_obj, p.hdr.event_id);
      hw::Mailbox& mb = ctx_->mailbox();
      if (mb.drop_notices.size() < hw::Mailbox::kMaxDropNotices) {
        mb.drop_notices.push_back(hw::DropNotice{p.hdr.event_id, p.hdr.src_obj,
                                                 p.hdr.dst, p.hdr.color_epoch,
                                                 p.hdr.recv_ts, true});
      }
      pending_dropped_pb_[p.hdr.dst] += 1;
      filtered_anti_.add(1);
      if (ctx_->trace().enabled(TraceCat::kCancel)) {
        ctx_->trace().record({ctx_->now(), p.hdr.recv_ts, TraceCat::kCancel,
                              TracePoint::kCancelFilterAnti, true, ctx_->node_id(),
                              p.hdr.dst, p.hdr.event_id, /*a=in_ring*/ 1, 0});
      }
      ctx_->drop_from_send_ring(i);
      continue;
    }
    ++i;
  }
  return cost;
}

hw::Firmware::HookResult CancelFirmware::on_net_rx(hw::Packet& pkt) {
  SimTime cost = ctx_->cost().us(ctx_->cost().nic_per_packet_us);
  if (pkt.hdr.kind != hw::PacketKind::kEvent) return {Action::kForward, cost};

  if (pkt.hdr.negative) {
    cost += ctx_->cost().us(ctx_->cost().nic_cancel_base_us);
    // An incoming anti for local object O: remember it and reap the send
    // ring. k is the host's anti counter *after* it processes this one.
    const ObjectId key = record_key(pkt.hdr.dst_obj);
    const std::uint64_t k = ++antis_delivered_[key];
    auto& recs = records_[key];
    if (recs.size() < opts_.max_anti_records_per_object) {
      recs.push_back(AntiRecord{pkt.hdr.recv_ts, k, pkt.hdr.event_id});
      cost += scan_send_ring();
    } else {
      record_overflow_.add(1);
    }
  }
  return {Action::kForward, cost};
}

}  // namespace nicwarp::firmware

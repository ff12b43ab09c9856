#include "warped/gvt_pgvt.hpp"

#include "core/assert.hpp"

namespace nicwarp::warped {

void PGvtManager::attach(KernelApi& api) {
  GvtManager::attach(api);
  estimations_ = CounterHandle(api.stats(), "gvt.estimations");
  rounds_ = CounterHandle(api.stats(), "gvt.rounds");
  acks_ = CounterHandle(api.stats(), "gvt.acks");
}

void PGvtManager::start() { last_completion_ = api_->now(); }

void PGvtManager::on_event_processed() {
  if (is_root()) maybe_initiate(/*force=*/false);
}

void PGvtManager::idle_poll() {
  if (!is_root() || gathering_) return;
  if (api_->lp_idle() &&
      api_->now() - last_completion_ >= SimTime::from_us(opts_.idle_initiate_us)) {
    maybe_initiate(/*force=*/true);
  }
}

void PGvtManager::maybe_initiate(bool force) {
  if (gathering_) return;
  if (!force && api_->events_processed() - events_at_last_init_ < opts_.period) return;
  gathering_ = true;
  events_at_last_init_ = api_->events_processed();
  ++gather_epoch_;
  reporters_.clear();
  gather_min_ = local_report();
  estimations_.add(1);
  rounds_.add(1);
  for (NodeId n = 0; n < api_->world_size(); ++n) {
    if (n == api_->rank()) continue;
    hw::Packet req;
    req.hdr.kind = hw::PacketKind::kPGvtRequest;
    req.hdr.dst = n;
    req.hdr.size_bytes = static_cast<std::uint32_t>(api_->cost().gvt_ctrl_bytes);
    req.hdr.gvt.epoch = gather_epoch_;
    api_->send_control(std::move(req));
  }
  if (api_->world_size() == 1) {
    // Degenerate single-node world: complete immediately.
    gathering_ = false;
    last_completion_ = api_->now();
    publish_gvt(gather_min_);
  }
}

VirtualTime PGvtManager::local_report() {
  VirtualTime m = VirtualTime::min(low_water_, api_->safe_local_min());
  for (const auto& [k, p] : outstanding_) m = VirtualTime::min(m, p.ts);
  low_water_ = VirtualTime::inf();  // new reporting interval starts now
  return m;
}

void PGvtManager::stamp_outgoing(hw::PacketHeader& hdr) {
  if (hdr.kind != hw::PacketKind::kEvent) return;
  Pending& p = outstanding_[key(hdr.event_id, hdr.negative)];
  p.copies += 1;
  p.ts = VirtualTime::min(p.ts, hdr.recv_ts);
  low_water_ = VirtualTime::min(low_water_, hdr.recv_ts);
}

void PGvtManager::release_outstanding(std::uint64_t k) {
  auto it = outstanding_.find(k);
  NW_CHECK_MSG(it != outstanding_.end() && it->second.copies > 0,
               "pGVT released a send it was not tracking");
  if (--it->second.copies == 0) outstanding_.erase(it);
}

void PGvtManager::on_event_received(const hw::PacketHeader& hdr) {
  low_water_ = VirtualTime::min(low_water_, hdr.recv_ts);
  send_ack(hdr);
}

void PGvtManager::send_ack(const hw::PacketHeader& hdr) {
  hw::Packet ack;
  ack.hdr.kind = hw::PacketKind::kAck;
  ack.hdr.dst = hdr.src;
  ack.hdr.event_id = hdr.event_id;
  ack.hdr.negative = hdr.negative;
  ack.hdr.size_bytes = static_cast<std::uint32_t>(api_->cost().ack_msg_bytes);
  acks_.add(1);
  api_->send_control(std::move(ack));
}

void PGvtManager::on_nic_drop(const hw::DropNotice& n) {
  // A dropped packet will never be acknowledged; release its copy. Its
  // timestamp stays in low_water_, which is merely conservative. A tracked
  // copy MUST exist — each stamped send is released exactly once, by its ack
  // or by its DropNotice. A miss would mean the drop and ack paths disagree
  // about which message this was, silently pinning `outstanding_` (a GVT
  // floor leak) or double-releasing a copy still in flight (unsafe GVT).
  release_outstanding(key(n.id, n.negative));
}

void PGvtManager::on_control(const hw::Packet& pkt) {
  switch (pkt.hdr.kind) {
    case hw::PacketKind::kAck:
      release_outstanding(key(pkt.hdr.event_id, pkt.hdr.negative));
      return;
    case hw::PacketKind::kPGvtRequest: {
      hw::Packet rep;
      rep.hdr.kind = hw::PacketKind::kPGvtReport;
      rep.hdr.dst = pkt.hdr.src;
      rep.hdr.size_bytes = static_cast<std::uint32_t>(api_->cost().gvt_ctrl_bytes);
      rep.hdr.gvt.epoch = pkt.hdr.gvt.epoch;
      rep.hdr.gvt.t = local_report();
      api_->send_control(std::move(rep));
      return;
    }
    case hw::PacketKind::kPGvtReport: {
      if (!gathering_ || pkt.hdr.gvt.epoch != gather_epoch_) return;
      // Track reporters by identity, not by count: a duplicated report must
      // not complete the gather while some node has not answered (its
      // in-flight messages would be missing from the minimum).
      if (!reporters_.insert(pkt.hdr.src).second) return;
      gather_min_ = VirtualTime::min(gather_min_, pkt.hdr.gvt.t);
      if (reporters_.size() == api_->world_size() - 1) {
        gathering_ = false;
        last_completion_ = api_->now();
        for (NodeId n = 0; n < api_->world_size(); ++n) {
          if (n == api_->rank()) continue;
          hw::Packet fin;
          fin.hdr.kind = hw::PacketKind::kGvtBroadcast;
          fin.hdr.dst = n;
          fin.hdr.size_bytes = static_cast<std::uint32_t>(api_->cost().gvt_ctrl_bytes);
          fin.hdr.gvt.gvt = gather_min_;
          api_->send_control(std::move(fin));
        }
        publish_gvt(gather_min_);
      }
      return;
    }
    case hw::PacketKind::kGvtBroadcast:
      publish_gvt(pkt.hdr.gvt.gvt);
      return;
    default:
      return;
  }
}

}  // namespace nicwarp::warped

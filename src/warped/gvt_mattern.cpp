#include "warped/gvt_mattern.hpp"

#include "core/assert.hpp"

namespace nicwarp::warped {

void MatternGvtManager::attach(KernelApi& api) {
  GvtManager::attach(api);
  estimations_ = CounterHandle(api.stats(), "gvt.estimations");
  rounds_ = CounterHandle(api.stats(), "gvt.rounds");
  color_map_peak_ = CounterHandle(api.stats(), "gvt.color_map_peak");
}

void MatternGvtManager::start() { last_completion_ = api_->now(); }

void MatternGvtManager::on_event_processed() {
  if (is_root()) maybe_initiate();
}

void MatternGvtManager::idle_poll() {
  if (!is_root() || !outstanding_.empty()) return;
  if (api_->lp_idle() &&
      api_->now() - last_completion_ >= SimTime::from_us(opts_.idle_initiate_us)) {
    // Idle initiation ignores the period so termination is always detected.
    events_at_last_init_ = api_->events_processed() - opts_.period;
    maybe_initiate();
  }
}

void MatternGvtManager::maybe_initiate() {
  if (outstanding_.size() >= opts_.max_outstanding) return;
  if (api_->events_processed() - events_at_last_init_ < opts_.period) return;
  events_at_last_init_ = api_->events_processed();

  const std::uint32_t e = std::max(epoch_, last_epoch_started_) + 1;
  last_epoch_started_ = e;
  outstanding_.insert(e);
  estimations_.add(1);

  hw::GvtFields token;
  token.epoch = e;
  token.round = 1;
  token.white_count = 0;
  token.t = VirtualTime::inf();
  token.tmin = VirtualTime::inf();
  contribute(token);
  forward(token, next_rank(), hw::PacketKind::kHostGvtToken);
}

MatternGvtManager::ColorCell& MatternGvtManager::cell(std::uint32_t epoch) {
  if (epoch < color_base_) {
    // Pruned color: the estimation that cared completed long ago; accept
    // (and discard) the write.
    scratch_ = ColorCell{};
    return scratch_;
  }
  const std::size_t idx = epoch - color_base_;
  if (idx >= colors_.size()) {
    colors_.resize(idx + 1);
    if (colors_.size() > color_peak_) {
      color_peak_ = colors_.size();
      // Gauge semantics on a counter: raise it to the new high-water mark.
      Counter& peak = color_map_peak_.counter();
      peak.add(static_cast<std::int64_t>(color_peak_) - peak.get());
    }
  }
  return colors_[idx];
}

const MatternGvtManager::ColorCell& MatternGvtManager::cell_at(
    std::uint32_t epoch) const {
  static const ColorCell kZero{};
  if (epoch < color_base_) return kZero;
  const std::size_t idx = epoch - color_base_;
  return idx < colors_.size() ? colors_[idx] : kZero;
}

void MatternGvtManager::stamp_outgoing(hw::PacketHeader& hdr) {
  if (hdr.kind != hw::PacketKind::kEvent) return;
  hdr.color_epoch = epoch_;
  ColorCell& c = cell(epoch_);
  c.sent += 1;
  c.tmin_sent = VirtualTime::min(c.tmin_sent, hdr.recv_ts);
}

void MatternGvtManager::on_event_received(const hw::PacketHeader& hdr) {
  cell(hdr.color_epoch).received += 1;
}

void MatternGvtManager::on_nic_drop(const hw::DropNotice& n) {
  // The packet never left this node; retract its "sent" contribution so the
  // white count can drain. (Its timestamp stays folded into tmin_sent,
  // which is only conservative.)
  cell(n.color_epoch).sent -= 1;
}

VirtualTime MatternGvtManager::red_min(std::uint32_t estimation_epoch) const {
  // "Red" for estimation E is every send colored >= E (later concurrent
  // estimations only recolor upward). A flat sweep over the bounded color
  // window, not a std::map walk.
  VirtualTime m = VirtualTime::inf();
  const std::uint32_t start = std::max(estimation_epoch, color_base_);
  for (std::size_t i = start - color_base_; i < colors_.size(); ++i) {
    m = VirtualTime::min(m, colors_[i].tmin_sent);
  }
  return m;
}

void MatternGvtManager::contribute(hw::GvtFields& token) {
  const auto e = static_cast<std::uint32_t>(token.epoch);
  NW_CHECK(e >= 1);
  if (epoch_ < e) epoch_ = e;  // the cut passes this LP now

  // Incremental white-count contribution for THIS estimation. Take the
  // estimation cell first: cell() may grow the window, which would
  // invalidate a previously-taken reference into it.
  ColorCell& est = cell(e);
  const std::int64_t s = cell_at(e - 1).sent;
  const std::int64_t r = cell_at(e - 1).received;
  token.white_count += (s - est.reported_sent) - (r - est.reported_recv);
  est.reported_sent = s;
  est.reported_recv = r;

  // Minima: each white's receipt is reported at a visit whose LVT sample
  // already reflects it (receives are counted and inserted in the same host
  // task), so the accumulated minima soundly bound GVT once the count drains.
  token.t = VirtualTime::min(token.t, api_->safe_local_min());
  token.tmin = VirtualTime::min(token.tmin, red_min(e));
}

void MatternGvtManager::forward(const hw::GvtFields& token, NodeId dst,
                                hw::PacketKind kind) {
  hw::Packet pkt;
  pkt.hdr.kind = kind;
  pkt.hdr.dst = dst;
  pkt.hdr.size_bytes = static_cast<std::uint32_t>(api_->cost().gvt_ctrl_bytes);
  pkt.hdr.gvt = token;
  api_->send_control(std::move(pkt));
}

void MatternGvtManager::on_control(const hw::Packet& pkt) {
  switch (pkt.hdr.kind) {
    case hw::PacketKind::kGvtBroadcast: {
      publish_gvt(pkt.hdr.gvt.gvt);
      prune_below(pkt.hdr.gvt.epoch);
      return;
    }
    case hw::PacketKind::kHostGvtToken:
      break;
    default:
      return;  // not ours (acks etc. are pGVT's)
  }

  hw::GvtFields token = pkt.hdr.gvt;
  if (!is_root()) {
    contribute(token);
    forward(token, next_rank(), hw::PacketKind::kHostGvtToken);
    return;
  }

  // Token returned to the root: one full circulation done; the root's
  // sighting is both a return and a visit.
  rounds_.add(1);
  contribute(token);
  if (token.white_count == 0) {
    complete(token.epoch, VirtualTime::min(token.t, token.tmin));
  } else {
    token.round += 1;
    NW_CHECK_MSG(token.round < 1000000, "GVT counting never converges");
    forward(token, next_rank(), hw::PacketKind::kHostGvtToken);
  }
}

void MatternGvtManager::complete(std::uint32_t epoch, VirtualTime gvt_value) {
  outstanding_.erase(epoch);
  last_completion_ = api_->now();
  hw::GvtFields fin;
  fin.epoch = epoch;
  fin.gvt = gvt_value;
  for (NodeId n = 0; n < api_->world_size(); ++n) {
    if (n == api_->rank()) continue;
    forward(fin, n, hw::PacketKind::kGvtBroadcast);
  }
  prune_below(epoch);
  publish_gvt(gvt_value);
}

void MatternGvtManager::prune_below(std::uint32_t epoch) {
  // Estimations more than max_outstanding behind can no longer be in flight;
  // their color counters are dead. (The root could prune exactly via its
  // outstanding set, but non-roots need a bound too.) Sliding color_base_
  // forward keeps the flat window bounded for the whole run — the
  // gvt.color_map_peak stat records the widest it ever got.
  if (epoch < opts_.max_outstanding + 2) return;
  const std::uint32_t floor =
      epoch - static_cast<std::uint32_t>(opts_.max_outstanding) - 2;
  if (floor <= color_base_) return;
  const std::size_t drop =
      std::min<std::size_t>(floor - color_base_, colors_.size());
  colors_.erase(colors_.begin(), colors_.begin() + static_cast<std::ptrdiff_t>(drop));
  color_base_ += static_cast<std::uint32_t>(drop);
  if (colors_.empty()) color_base_ = floor;  // nothing retained: jump ahead
}

}  // namespace nicwarp::warped

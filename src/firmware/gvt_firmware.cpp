#include "firmware/gvt_firmware.hpp"

#include "core/assert.hpp"
#include "core/log.hpp"

namespace nicwarp::firmware {

namespace {
VirtualTime map_min(const std::map<std::uint32_t, VirtualTime>& m, std::uint32_t k) {
  auto it = m.find(k);
  return it == m.end() ? VirtualTime::inf() : it->second;
}
}  // namespace

void GvtFirmware::attach(hw::NicContext& ctx) {
  Firmware::attach(ctx);
  estimations_ = CounterHandle(ctx.stats(), "gvt.estimations");
  rounds_ = CounterHandle(ctx.stats(), "gvt.rounds");
  wire_tokens_ = CounterHandle(ctx.stats(), "gvt.wire_tokens");
  tokens_piggybacked_ = CounterHandle(ctx.stats(), "gvt.tokens_piggybacked");
  tokens_stale_ = CounterHandle(ctx.stats(), "gvt.tokens_stale");
  token_regens_ = CounterHandle(ctx.stats(), "gvt.token_regens");
  rebroadcasts_ = CounterHandle(ctx.stats(), "gvt.rebroadcasts");
  last_completion_ = ctx.now();
  // Housekeeping timer: handshake watch, piggyback deadline, root initiation.
  ctx.schedule(SimTime::from_us(opts_.poll_interval_us), [this] { return poll(); });
}

SimTime GvtFirmware::poll() {
  SimTime cost = ctx_->cost().us(opts_.poll_cost_us);

  // 1. Host replied through the mailbox?
  hw::Mailbox& mb = ctx_->mailbox();
  if (held_token_ && mb.host_values.valid && mb.host_values.epoch == held_token_->epoch) {
    const VirtualTime t = mb.host_values.lvt;
    mb.host_values.valid = false;
    cost += resolve_handshake(held_token_->epoch, t);
  }

  // 2. Piggyback window expired: pay for a dedicated wire token.
  if (out_token_ && ctx_->now() >= out_deadline_) cost += emit_wire_token();

  // 3. Unreliable fabric only: lost-token / lost-broadcast recovery (root).
  cost += maybe_regenerate();
  cost += maybe_rebroadcast();

  // 4. Root: time to start a new estimation?
  cost += maybe_initiate();

  ctx_->schedule(SimTime::from_us(opts_.poll_interval_us), [this] { return poll(); });
  return cost;
}

SimTime GvtFirmware::maybe_initiate() {
  if (!is_root() || estimating_ || held_token_ || out_token_) return SimTime::zero();
  const hw::Mailbox& mb = ctx_->mailbox();
  if (!mb.timewarp_initialised) return SimTime::zero();
  const bool period_hit = mb.events_processed - events_base_ >= opts_.period;
  const bool autonomy_hit =
      ctx_->now() - last_completion_ >= SimTime::from_us(opts_.autonomy_us);
  if (!period_hit && !autonomy_hit) return SimTime::zero();
  return initiate();
}

SimTime GvtFirmware::initiate() {
  estimating_ = true;
  events_base_ = ctx_->mailbox().events_processed;
  last_est_activity_ = ctx_->now();
  estimations_.add(1);
  if (ctx_->trace().enabled(TraceCat::kGvt)) {
    ctx_->trace().record({ctx_->now(), VirtualTime::zero(), TraceCat::kGvt,
                          TracePoint::kGvtInitiate, false, ctx_->node_id(),
                          kInvalidNode, kInvalidEvent, epoch_ + 1, 0});
  }

  hw::GvtFields token;
  token.epoch = epoch_ + 1;
  token.round = 0;
  token.phase = 0;
  token.white_count = 0;
  token.t = VirtualTime::inf();
  token.tmin = VirtualTime::inf();
  // Whites of every epoch in [floor, epoch) count toward this estimation.
  // Fault-free, floor is always epoch - 1; after an abandoned epoch the range
  // widens so a zombie epoch's in-flight messages cannot escape the count.
  token.floor = last_completed_epoch_;
  return handle_token(token);
}

SimTime GvtFirmware::maybe_regenerate() {
  if (!is_root() || !estimating_ || !ctx_->cost().rel_enabled) return SimTime::zero();
  const SimTime timeout = ctx_->cost().us(ctx_->cost().gvt_token_timeout_us);
  if (ctx_->now() - last_est_activity_ < timeout) return SimTime::zero();

  // The token of the current epoch is presumed lost (dropped or corrupted on
  // the wire). Abandon the epoch and start over: the abandoned colors remain
  // inside the next token's [floor, epoch) counting range, so a regenerated
  // estimate can only be delayed, never unsafely high. The root initiates
  // every epoch, so epoch_ + 1 is globally fresh and any straggler copy of
  // the old token dies at the first NIC that has seen the new one.
  token_regens_.add(1);
  if (ctx_->trace().enabled(TraceCat::kGvt)) {
    ctx_->trace().record({ctx_->now(), VirtualTime::zero(), TraceCat::kGvt,
                          TracePoint::kGvtTokenRegen, false, ctx_->node_id(),
                          kInvalidNode, kInvalidEvent, epoch_,
                          static_cast<std::uint64_t>(last_handled_round_)});
  }
  held_token_.reset();
  out_token_.reset();
  estimating_ = false;
  return initiate();
}

SimTime GvtFirmware::maybe_rebroadcast() {
  if (!is_root() || !ctx_->cost().rel_enabled) return SimTime::zero();
  hw::Mailbox& mb = ctx_->mailbox();
  if (mb.gvt_epoch == 0) return SimTime::zero();  // nothing published yet
  const SimTime interval = ctx_->cost().us(ctx_->cost().gvt_rebroadcast_us);
  if (ctx_->now() - last_rebroadcast_ < interval) return SimTime::zero();
  last_rebroadcast_ = ctx_->now();
  rebroadcasts_.add(1);
  for (NodeId n = 0; n < ctx_->world_size(); ++n) {
    if (n == ctx_->node_id()) continue;
    hw::Packet pkt;
    pkt.hdr.kind = hw::PacketKind::kGvtBroadcast;
    pkt.hdr.dst = n;
    pkt.hdr.size_bytes = static_cast<std::uint32_t>(ctx_->cost().gvt_ctrl_bytes);
    pkt.hdr.gvt.gvt = mb.gvt;
    pkt.hdr.gvt.epoch = mb.gvt_epoch;
    ctx_->emit(std::move(pkt));
  }
  return ctx_->cost().us(ctx_->cost().nic_token_handle_us);
}

SimTime GvtFirmware::handle_token(const hw::GvtFields& token) {
  // Fabric duplicates and zombie tokens from abandoned epochs arrive here
  // under fault injection. (epoch, round) strictly increases at every NIC of
  // a healthy ring, so anything not above the last handled pair is discarded
  // — dropping a token is always safe (GVT is merely delayed, and the root
  // regenerates if the live token was the casualty).
  const bool fresh =
      token.epoch > last_handled_epoch_ ||
      (token.epoch == last_handled_epoch_ &&
       static_cast<std::int64_t>(token.round) > last_handled_round_);
  if (!fresh) {
    tokens_stale_.add(1);
    if (ctx_->trace().enabled(TraceCat::kGvt)) {
      ctx_->trace().record({ctx_->now(), token.t, TraceCat::kGvt,
                            TracePoint::kGvtTokenStale, false, ctx_->node_id(),
                            kInvalidNode, kInvalidEvent, token.epoch,
                            static_cast<std::uint64_t>(token.round)});
    }
    return ctx_->cost().us(ctx_->cost().nic_token_handle_us);
  }
  // A newer epoch supersedes whatever older token this NIC still holds or
  // has queued for forwarding (the root abandoned that estimation).
  if (held_token_ && held_token_->epoch < token.epoch) {
    tokens_stale_.add(1);
    held_token_.reset();
  }
  if (out_token_ && out_token_->epoch < token.epoch) {
    tokens_stale_.add(1);
    out_token_.reset();
  }
  NW_CHECK_MSG(!held_token_, "second GVT token while one is held (ring protocol broken)");
  last_handled_epoch_ = token.epoch;
  last_handled_round_ = static_cast<std::int64_t>(token.round);
  if (is_root()) last_est_activity_ = ctx_->now();
  if (epoch_ < token.epoch) {
    // The cut passes this NIC now: later wire exits are colored `epoch`.
    epoch_ = token.epoch;
  }
  if (reporting_epoch_ != token.epoch) {
    reporting_epoch_ = token.epoch;
    reported_sent_ = 0;
    reported_recv_ = 0;
  }
  held_token_ = token;
  hold_start_ = ctx_->now();
  if (ctx_->trace().enabled(TraceCat::kGvt)) {
    ctx_->trace().record({ctx_->now(), token.t, TraceCat::kGvt,
                          TracePoint::kGvtTokenHandle, false, ctx_->node_id(),
                          kInvalidNode, kInvalidEvent, token.epoch,
                          static_cast<std::uint64_t>(token.round)});
  }

  // Ask the host for T. The notification goes up the same FIFO path as
  // event traffic, which is the consistency barrier (see warped/gvt_nic.hpp).
  hw::Mailbox& mb = ctx_->mailbox();
  mb.handshake_requested = true;
  mb.handshake_epoch = token.epoch;
  hw::Packet notify;
  notify.hdr.kind = hw::PacketKind::kNicGvtToken;
  notify.hdr.src = ctx_->node_id();
  notify.hdr.dst = ctx_->node_id();
  notify.hdr.size_bytes = static_cast<std::uint32_t>(ctx_->cost().gvt_ctrl_bytes);
  notify.hdr.gvt.epoch = token.epoch;
  ctx_->deliver_to_host(std::move(notify));
  return ctx_->cost().us(ctx_->cost().nic_token_handle_us);
}

SimTime GvtFirmware::resolve_handshake(std::uint64_t epoch, VirtualTime host_t) {
  if (!held_token_ || held_token_->epoch != epoch) return SimTime::zero();
  hw::GvtFields token = *held_token_;
  held_token_.reset();
  if (ctx_->trace().enabled(TraceCat::kGvt)) {
    ctx_->trace().record({ctx_->now(), host_t, TraceCat::kGvt,
                          TracePoint::kGvtHandshake, false, ctx_->node_id(),
                          kInvalidNode, kInvalidEvent, epoch, 0});
  }

  const std::uint32_t e = token.epoch;
  if (token.phase == 0) {
    // Whites are every color in [floor, e). Fault-free the floor is always
    // e - 1, which reduces to the classic single-epoch count; after a token
    // regeneration the range also covers the abandoned epochs, whose
    // in-flight messages must still be proven drained before completion.
    const std::uint32_t f = static_cast<std::uint32_t>(token.floor);
    std::int64_t s = 0;
    std::int64_t r = 0;
    for (auto it = sent_.lower_bound(f); it != sent_.end() && it->first < e; ++it)
      s += it->second;
    for (auto it = received_.lower_bound(f); it != received_.end() && it->first < e; ++it)
      r += it->second;
    token.white_count += (s - reported_sent_) - (r - reported_recv_);
    reported_sent_ = s;
    reported_recv_ = r;
  }
  token.t = VirtualTime::min(token.t, host_t);
  token.tmin = VirtualTime::min(token.tmin, map_min(tmin_sent_, e));

  return dispatch_token(token);
}

void GvtFirmware::note_token_release() {
  if (ctx_->entity().enabled()) {
    ctx_->entity().record_gvt_token_hold(
        ctx_->node_id(),
        static_cast<std::uint64_t>((ctx_->now() - hold_start_).ns));
  }
}

SimTime GvtFirmware::dispatch_token(hw::GvtFields token) {
  if (!is_root()) {
    queue_outgoing(token);
    return SimTime::zero();
  }

  // Root sighting. Convention: the root forwards with round >= 1, so a
  // round-0 token here is the initiation visit (no circulation happened yet).
  if (token.round == 0) {
    token.round = 1;
    queue_outgoing(token);
    return SimTime::zero();
  }

  // A circulation completed (the root's own contribution was folded in by
  // resolve_handshake — a root sighting is both a return and a visit).
  rounds_.add(1);
  if (token.white_count != 0) {
    token.round += 1;
    NW_CHECK_MSG(token.round < 1000000, "NIC GVT counting never converges");
    queue_outgoing(token);
    return SimTime::zero();
  }
  // All whites received; every receipt was reported at a visit whose
  // handshake followed it through the FIFO rx barrier, so the accumulated
  // minima are a sound bound.
  note_token_release();
  return complete(VirtualTime::min(token.t, token.tmin), token.epoch);
}

void GvtFirmware::queue_outgoing(hw::GvtFields token) {
  if (out_token_) {
    // Only a newer epoch may displace a queued token (its epoch was
    // abandoned); within an epoch an overwrite is a protocol bug.
    NW_CHECK_MSG(out_token_->epoch < token.epoch, "outgoing token overwrite");
    tokens_stale_.add(1);
    out_token_.reset();
  }
  out_token_ = token;
  out_dst_ = next_rank();
  out_deadline_ = ctx_->now() + SimTime::from_us(opts_.piggyback_window_us);
  if (!opts_.piggyback_tokens) {
    // Ablation A1: no piggybacking — always a dedicated wire token. Emission
    // is deferred to the poll tick closest to "now" by zeroing the deadline.
    out_deadline_ = ctx_->now();
  }
}

SimTime GvtFirmware::emit_wire_token() {
  NW_CHECK(out_token_);
  note_token_release();
  if (out_dst_ == ctx_->node_id()) {
    // Degenerate 1-node ring: the token "circulates" back to us instantly.
    const hw::GvtFields token = *out_token_;
    out_token_.reset();
    return handle_token(token) + ctx_->cost().us(ctx_->cost().nic_token_handle_us);
  }
  hw::Packet pkt;
  pkt.hdr.kind = hw::PacketKind::kNicGvtToken;
  pkt.hdr.dst = out_dst_;
  pkt.hdr.size_bytes = static_cast<std::uint32_t>(ctx_->cost().gvt_ctrl_bytes);
  pkt.hdr.gvt = *out_token_;
  if (ctx_->trace().enabled(TraceCat::kGvt)) {
    ctx_->trace().record({ctx_->now(), out_token_->t, TraceCat::kGvt,
                          TracePoint::kGvtTokenEmit, false, ctx_->node_id(),
                          out_dst_, kInvalidEvent, out_token_->epoch,
                          static_cast<std::uint64_t>(out_token_->round)});
  }
  out_token_.reset();
  wire_tokens_.add(1);
  ctx_->emit(std::move(pkt));
  return ctx_->cost().us(ctx_->cost().nic_token_handle_us);
}

SimTime GvtFirmware::complete(VirtualTime gvt_value, std::uint32_t epoch) {
  estimating_ = false;
  last_completion_ = ctx_->now();
  last_completed_epoch_ = epoch;   // next token's floor
  last_rebroadcast_ = ctx_->now();  // a fresh broadcast is going out right now
  events_base_ = ctx_->mailbox().events_processed;
  if (ctx_->trace().enabled(TraceCat::kGvt)) {
    ctx_->trace().record({ctx_->now(), gvt_value, TraceCat::kGvt,
                          TracePoint::kGvtComplete, false, ctx_->node_id(),
                          kInvalidNode, kInvalidEvent, epoch, 0});
  }

  // Tell every other NIC (wire broadcast, no host involvement there either).
  for (NodeId n = 0; n < ctx_->world_size(); ++n) {
    if (n == ctx_->node_id()) continue;
    hw::Packet pkt;
    pkt.hdr.kind = hw::PacketKind::kGvtBroadcast;
    pkt.hdr.dst = n;
    pkt.hdr.size_bytes = static_cast<std::uint32_t>(ctx_->cost().gvt_ctrl_bytes);
    pkt.hdr.gvt.gvt = gvt_value;
    pkt.hdr.gvt.epoch = epoch;
    ctx_->emit(std::move(pkt));
  }
  return adopt_gvt(gvt_value, epoch) +
         ctx_->cost().us(ctx_->cost().nic_token_handle_us);
}

SimTime GvtFirmware::adopt_gvt(VirtualTime gvt_value, std::uint32_t epoch) {
  hw::Mailbox& mb = ctx_->mailbox();
  if (mb.gvt < gvt_value) {
    mb.gvt = gvt_value;
    mb.gvt_epoch = epoch;
    if (ctx_->trace().enabled(TraceCat::kGvt)) {
      ctx_->trace().record({ctx_->now(), gvt_value, TraceCat::kGvt,
                            TracePoint::kGvtAdopt, false, ctx_->node_id(),
                            kInvalidNode, kInvalidEvent, epoch, 0});
    }
  }
  // Colors below a completed epoch are proven drained cluster-wide (that is
  // exactly what white_count == 0 established), so all of them can be pruned.
  // Fault-free this removes only epoch - 1; after a token regeneration it
  // also collects the abandoned epochs' counters.
  sent_.erase(sent_.begin(), sent_.lower_bound(epoch));
  received_.erase(received_.begin(), received_.lower_bound(epoch));
  tmin_sent_.erase(tmin_sent_.begin(), tmin_sent_.lower_bound(epoch));
  // Nudge the host so fossil collection (and termination) is timely.
  hw::Packet notify;
  notify.hdr.kind = hw::PacketKind::kGvtBroadcast;
  notify.hdr.src = ctx_->node_id();
  notify.hdr.dst = ctx_->node_id();
  notify.hdr.size_bytes = static_cast<std::uint32_t>(ctx_->cost().gvt_ctrl_bytes);
  notify.hdr.gvt.gvt = gvt_value;
  ctx_->deliver_to_host(std::move(notify));
  return ctx_->cost().us(ctx_->cost().nic_token_handle_us);
}

hw::Firmware::HookResult GvtFirmware::on_host_tx(hw::Packet& pkt) {
  SimTime cost = ctx_->cost().us(ctx_->cost().nic_per_packet_us);
  if (pkt.hdr.gvt_handshake) {
    // Strip the piggybacked host reply.
    const std::uint64_t e = pkt.hdr.gvt.epoch;
    const VirtualTime t = pkt.hdr.gvt.t;
    pkt.hdr.gvt_handshake = false;
    pkt.hdr.gvt = hw::GvtFields{};
    cost += resolve_handshake(e, t);
  }
  return {Action::kForward, cost};
}

SimTime GvtFirmware::on_wire_tx(hw::Packet& pkt) {
  if (pkt.hdr.kind != hw::PacketKind::kEvent) return SimTime::zero();
  SimTime cost = ctx_->cost().us(ctx_->cost().nic_gvt_check_us);
  // Wire-level coloring and white counting.
  pkt.hdr.color_epoch = epoch_;
  sent_[epoch_] += 1;
  auto [it, fresh] = tmin_sent_.try_emplace(epoch_, VirtualTime::inf());
  it->second = VirtualTime::min(it->second, pkt.hdr.recv_ts);

  // Opportunistic token piggybacking onto a message already going our way.
  if (out_token_ && pkt.hdr.dst == out_dst_) {
    note_token_release();
    pkt.hdr.gvt_token_pb = true;
    pkt.hdr.gvt = *out_token_;
    if (ctx_->trace().enabled(TraceCat::kGvt)) {
      ctx_->trace().record({ctx_->now(), out_token_->t, TraceCat::kGvt,
                            TracePoint::kGvtTokenPiggyback, false, ctx_->node_id(),
                            out_dst_, pkt.hdr.event_id, out_token_->epoch,
                            static_cast<std::uint64_t>(out_token_->round)});
    }
    out_token_.reset();
    tokens_piggybacked_.add(1);
  }
  return cost;
}

hw::Firmware::HookResult GvtFirmware::on_net_rx(hw::Packet& pkt) {
  switch (pkt.hdr.kind) {
    case hw::PacketKind::kNicGvtToken: {
      const SimTime cost = handle_token(pkt.hdr.gvt);
      return {Action::kConsume, cost};
    }
    case hw::PacketKind::kGvtBroadcast: {
      const SimTime cost = adopt_gvt(pkt.hdr.gvt.gvt, pkt.hdr.gvt.epoch);
      return {Action::kConsume, cost};
    }
    case hw::PacketKind::kEvent: {
      SimTime cost = ctx_->cost().us(ctx_->cost().nic_per_packet_us) +
                     ctx_->cost().us(ctx_->cost().nic_gvt_check_us);
      received_[pkt.hdr.color_epoch] += 1;
      if (pkt.hdr.gvt_token_pb) {
        const hw::GvtFields token = pkt.hdr.gvt;
        pkt.hdr.gvt_token_pb = false;
        pkt.hdr.gvt = hw::GvtFields{};
        cost += handle_token(token);
      }
      return {Action::kForward, cost};
    }
    default:
      return {Action::kForward, ctx_->cost().us(ctx_->cost().nic_per_packet_us)};
  }
}

}  // namespace nicwarp::firmware

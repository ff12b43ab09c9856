// Unit tests for the firmware modules against a scripted fake NicContext —
// the token protocol, handshake sequencing, coloring, and the cancellation
// drop rules, each exercised in isolation from the full testbed.
#include <gtest/gtest.h>

#include <deque>

#include "firmware/cancel_firmware.hpp"
#include "firmware/combined_firmware.hpp"
#include "firmware/gvt_firmware.hpp"

namespace nicwarp::firmware {
namespace {

class FakeNicContext final : public hw::NicContext {
 public:
  FakeNicContext(NodeId id, std::uint32_t world) : id_(id), world_(world) {}

  NodeId node_id() const override { return id_; }
  std::uint32_t world_size() const override { return world_; }
  SimTime now() const override { return now_; }
  const hw::CostModel& cost() const override { return cost_; }
  hw::Mailbox& mailbox() override { return mailbox_; }
  StatsRegistry& stats() override { return stats_; }

  std::size_t send_ring_size() const override { return ring_.size(); }
  const hw::Packet& send_ring_at(std::size_t i) const override { return ring_.at(i); }
  hw::Packet& send_ring_mutable_at(std::size_t i) override { return ring_.at(i); }
  hw::Packet drop_from_send_ring(std::size_t i) override {
    hw::Packet p = std::move(ring_.at(i));
    ring_.erase(ring_.begin() + static_cast<std::ptrdiff_t>(i));
    return p;
  }
  void emit(hw::Packet pkt) override { emitted.push_back(std::move(pkt)); }
  void deliver_to_host(hw::Packet pkt) override { delivered.push_back(std::move(pkt)); }
  void schedule(SimTime delay, SmallFn<SimTime(), 64> fn) override {
    timers.push_back({now_ + delay, std::move(fn)});
  }

  // --- test controls ---
  void advance_to(SimTime t) {
    // Fire due timers in order (each may schedule more).
    for (;;) {
      std::size_t best = timers.size();
      for (std::size_t i = 0; i < timers.size(); ++i) {
        if (timers[i].first <= t && (best == timers.size() ||
                                     timers[i].first < timers[best].first)) {
          best = i;
        }
      }
      if (best == timers.size()) break;
      auto [when, fn] = std::move(timers[best]);
      timers.erase(timers.begin() + static_cast<std::ptrdiff_t>(best));
      now_ = when;
      fn();
    }
    now_ = t;
  }

  std::deque<hw::Packet> ring_;
  std::vector<hw::Packet> emitted;
  std::vector<hw::Packet> delivered;
  std::vector<std::pair<SimTime, SmallFn<SimTime(), 64>>> timers;
  hw::CostModel cost_;
  hw::Mailbox mailbox_;
  StatsRegistry stats_;
  SimTime now_{SimTime::zero()};
  NodeId id_;
  std::uint32_t world_;
};

hw::Packet event_pkt(NodeId dst, ObjectId src_obj, ObjectId dst_obj, std::int64_t send_ts,
                     EventId id, bool negative = false, std::uint64_t counter = 0) {
  hw::Packet p;
  p.hdr.kind = hw::PacketKind::kEvent;
  p.hdr.dst = dst;
  p.hdr.src_obj = src_obj;
  p.hdr.dst_obj = dst_obj;
  p.hdr.send_ts = VirtualTime{send_ts};
  p.hdr.recv_ts = VirtualTime{send_ts + 5};
  p.hdr.event_id = id;
  p.hdr.negative = negative;
  p.hdr.anti_counter_pb = counter;
  p.hdr.size_bytes = 128;
  return p;
}

// ---------------------------------------------------------------------------
// CancelFirmware drop rules
// ---------------------------------------------------------------------------

class CancelUnit : public ::testing::Test {
 protected:
  CancelUnit() : ctx_(0, 4) {
    CancelFirmwareOptions opts;
    opts.lp_scope = true;
    fw_ = std::make_unique<CancelFirmware>(opts);
    fw_->attach(ctx_);
  }
  FakeNicContext ctx_;
  std::unique_ptr<CancelFirmware> fw_;
};

TEST_F(CancelUnit, IncomingAntiScansRingAndDropsDoomed) {
  // Ring holds three positives: ts 120, 85, 110 (FIFO order), all generated
  // pre-anti (counter 0). An anti with receive ts 100 arrives (paper Fig 3b).
  ctx_.ring_.push_back(event_pkt(1, 7, 9, 120, 1001));
  ctx_.ring_.push_back(event_pkt(2, 8, 9, 85, 1002));
  ctx_.ring_.push_back(event_pkt(3, 7, 9, 110, 1003));

  hw::Packet anti = event_pkt(0, 5, 7, 100, 2000, /*negative=*/true);
  anti.hdr.recv_ts = VirtualTime{100};
  const auto r = fw_->on_net_rx(anti);
  EXPECT_EQ(r.action, hw::Firmware::Action::kForward);  // antis reach the host

  // 120 and 110 dropped; 85 survives (not beyond the rollback point).
  ASSERT_EQ(ctx_.ring_.size(), 1u);
  EXPECT_EQ(ctx_.ring_[0].hdr.send_ts, (VirtualTime{85}));
  EXPECT_EQ(ctx_.stats_.value("cancel.dropped_positive"), 2);
  // Drop entries recorded under the dropped packets' sender objects.
  EXPECT_TRUE(ctx_.mailbox_.take_dropped(7, 1001));
  EXPECT_TRUE(ctx_.mailbox_.take_dropped(7, 1003));
}

TEST_F(CancelUnit, PostAntiMessagesAreNotDropped) {
  hw::Packet anti = event_pkt(0, 5, 7, 100, 2000, true);
  anti.hdr.recv_ts = VirtualTime{100};
  fw_->on_net_rx(anti);  // host counter will be 1 after processing

  // FIFO channel order: pre-anti messages (counter 0) arrive first and are
  // doomed; post-anti messages (counter 1) follow and must pass. The
  // counter-1 arrival also prunes the anti record (the host has caught up).
  hw::Packet pre = event_pkt(1, 7, 9, 150, 1005, false, /*counter=*/0);
  EXPECT_EQ(fw_->on_host_tx(pre).action, hw::Firmware::Action::kDrop);
  hw::Packet post = event_pkt(1, 7, 9, 150, 1004, false, /*counter=*/1);
  EXPECT_EQ(fw_->on_host_tx(post).action, hw::Firmware::Action::kForward);
  // Record pruned: later high-timestamp traffic flows untouched.
  hw::Packet later = event_pkt(1, 7, 9, 200, 1006, false, /*counter=*/1);
  EXPECT_EQ(fw_->on_host_tx(later).action, hw::Firmware::Action::kForward);
}

TEST_F(CancelUnit, AntiFromHostIsFilteredWhenItsPositiveWasDropped) {
  hw::Packet anti_in = event_pkt(0, 5, 7, 100, 2000, true);
  anti_in.hdr.recv_ts = VirtualTime{100};
  fw_->on_net_rx(anti_in);
  hw::Packet doomed = event_pkt(1, 7, 9, 150, 1006, false, 0);
  ASSERT_EQ(fw_->on_host_tx(doomed).action, hw::Firmware::Action::kDrop);

  // The host's matching anti (generated at its rollback) must die too.
  hw::Packet anti_out = event_pkt(1, 7, 9, 150, 1006, true, 1);
  EXPECT_EQ(fw_->on_host_tx(anti_out).action, hw::Firmware::Action::kDrop);
  EXPECT_EQ(ctx_.stats_.value("cancel.filtered_anti"), 1);
  // Both produced accounting notices.
  EXPECT_EQ(ctx_.mailbox_.drop_notices.size(), 2u);
  EXPECT_FALSE(ctx_.mailbox_.drop_notices[0].negative);
  EXPECT_TRUE(ctx_.mailbox_.drop_notices[1].negative);
}

TEST_F(CancelUnit, RingAntiBeforeDoomedPositiveIsNotFiltered) {
  // Ring: [anti(X), positive(X)] — the anti pairs with an EARLIER
  // incarnation already on the wire; only the positive may be dropped.
  ctx_.ring_.push_back(event_pkt(1, 7, 9, 150, 1007, /*negative=*/true, 0));
  ctx_.ring_.push_back(event_pkt(1, 7, 9, 150, 1007, /*negative=*/false, 0));

  hw::Packet anti = event_pkt(0, 5, 7, 100, 2000, true);
  anti.hdr.recv_ts = VirtualTime{100};
  fw_->on_net_rx(anti);

  ASSERT_EQ(ctx_.ring_.size(), 1u);
  EXPECT_TRUE(ctx_.ring_[0].hdr.negative) << "the leading anti must survive";
  EXPECT_EQ(ctx_.stats_.value("cancel.filtered_anti"), 0);
}

TEST_F(CancelUnit, RingAntiAfterDoomedPositiveIsFiltered) {
  // Ring: [positive(X), anti(X)] — the pair dies together.
  ctx_.ring_.push_back(event_pkt(1, 7, 9, 150, 1008, false, 0));
  ctx_.ring_.push_back(event_pkt(1, 7, 9, 150, 1008, true, 0));

  hw::Packet anti = event_pkt(0, 5, 7, 100, 2000, true);
  anti.hdr.recv_ts = VirtualTime{100};
  fw_->on_net_rx(anti);

  EXPECT_TRUE(ctx_.ring_.empty());
  EXPECT_EQ(ctx_.stats_.value("cancel.dropped_positive"), 1);
  EXPECT_EQ(ctx_.stats_.value("cancel.filtered_anti"), 1);
  // The pair consumed its own entry: nothing left for the host to suppress.
  EXPECT_FALSE(ctx_.mailbox_.take_dropped(7, 1008));
}

TEST_F(CancelUnit, ObjectScopeOnlyDropsTheTargetsObjects) {
  CancelFirmwareOptions opts;
  opts.lp_scope = false;
  CancelFirmware objfw(opts);
  objfw.attach(ctx_);

  ctx_.ring_.push_back(event_pkt(1, /*src_obj=*/7, 9, 150, 1009, false, 0));
  ctx_.ring_.push_back(event_pkt(1, /*src_obj=*/8, 9, 150, 1010, false, 0));

  // Anti targets local object 7: only object 7's output is doomed.
  hw::Packet anti = event_pkt(0, 5, /*dst_obj=*/7, 100, 2001, true);
  anti.hdr.recv_ts = VirtualTime{100};
  objfw.on_net_rx(anti);

  ASSERT_EQ(ctx_.ring_.size(), 1u);
  EXPECT_EQ(ctx_.ring_[0].hdr.src_obj, 8u);
}

TEST_F(CancelUnit, ControlPacketsAreNeverDropped) {
  hw::Packet anti = event_pkt(0, 5, 7, 100, 2000, true);
  anti.hdr.recv_ts = VirtualTime{100};
  fw_->on_net_rx(anti);

  hw::Packet tok;
  tok.hdr.kind = hw::PacketKind::kHostGvtToken;
  tok.hdr.dst = 1;
  EXPECT_EQ(fw_->on_host_tx(tok).action, hw::Firmware::Action::kForward);
  hw::Packet cr;
  cr.hdr.kind = hw::PacketKind::kCreditUpdate;
  cr.hdr.dst = 1;
  EXPECT_EQ(fw_->on_host_tx(cr).action, hw::Firmware::Action::kForward);
}

TEST_F(CancelUnit, DroppedPbStampedOnNextDeparture) {
  hw::Packet anti = event_pkt(0, 5, 7, 100, 2000, true);
  anti.hdr.recv_ts = VirtualTime{100};
  fw_->on_net_rx(anti);
  hw::Packet doomed = event_pkt(1, 7, 9, 150, 1011, false, 0);
  ASSERT_EQ(fw_->on_host_tx(doomed).action, hw::Firmware::Action::kDrop);

  hw::Packet next = event_pkt(1, 7, 9, 150, 1012, false, 5);
  fw_->on_wire_tx(next);
  EXPECT_EQ(next.hdr.dropped_pb, 1u);
  // One-shot: the counter was consumed.
  hw::Packet after = event_pkt(1, 7, 9, 151, 1013, false, 5);
  fw_->on_wire_tx(after);
  EXPECT_EQ(after.hdr.dropped_pb, 0u);
}

TEST_F(CancelUnit, FullDroppedIdBufferForwardsTheDoomedPositive) {
  // §3.2: each object's dropped-event-ID buffer holds 10 ids. Once it is
  // full, a doomed positive must travel and be cancelled by its anti.
  ASSERT_EQ(ctx_.cost_.nic_event_id_ring_slots, 10);
  hw::Packet anti = event_pkt(0, 5, 7, 100, 2000, true);
  anti.hdr.recv_ts = VirtualTime{100};
  fw_->on_net_rx(anti);
  for (EventId id = 1101; id <= 1110; ++id) {
    hw::Packet doomed = event_pkt(1, 7, 9, 150, id, false, 0);
    ASSERT_EQ(fw_->on_host_tx(doomed).action, hw::Firmware::Action::kDrop);
  }
  hw::Packet eleventh = event_pkt(1, 7, 9, 150, 1111, false, 0);
  EXPECT_EQ(fw_->on_host_tx(eleventh).action, hw::Firmware::Action::kForward);
  EXPECT_EQ(ctx_.stats_.value("cancel.dropped_positive"), 10);
  EXPECT_EQ(ctx_.mailbox_.drop_notices.size(), 10u);
  EXPECT_FALSE(ctx_.mailbox_.take_dropped(7, 1111));

  // The host suppressing one anti frees a slot: the next drop succeeds.
  EXPECT_TRUE(ctx_.mailbox_.take_dropped(7, 1103));
  hw::Packet next = event_pkt(1, 7, 9, 150, 1112, false, 0);
  EXPECT_EQ(fw_->on_host_tx(next).action, hw::Firmware::Action::kDrop);
  EXPECT_EQ(ctx_.stats_.value("cancel.dropped_positive"), 11);
  EXPECT_EQ(ctx_.mailbox_.drop_notices.size(), 11u);
  EXPECT_TRUE(ctx_.mailbox_.take_dropped(7, 1112));
}

// ---------------------------------------------------------------------------
// GvtFirmware protocol
// ---------------------------------------------------------------------------

class GvtUnit : public ::testing::Test {
 protected:
  GvtUnit(NodeId id = 0, std::uint32_t world = 3) : ctx_(id, world) {
    GvtFirmwareOptions opts;
    opts.period = 10;
    opts.autonomy_us = 1e9;  // no autonomous initiation during the test
    fw_ = std::make_unique<GvtFirmware>(opts);
    fw_->attach(ctx_);
    ctx_.mailbox_.timewarp_initialised = true;
  }

  // Answers the pending handshake through the mailbox and runs the poll.
  void answer_handshake(std::int64_t lvt) {
    ASSERT_FALSE(ctx_.delivered.empty()) << "no handshake notification";
    const hw::Packet notify = ctx_.delivered.back();
    ASSERT_EQ(notify.hdr.kind, hw::PacketKind::kNicGvtToken);
    ctx_.mailbox_.host_values.valid = true;
    ctx_.mailbox_.host_values.epoch = notify.hdr.gvt.epoch;
    ctx_.mailbox_.host_values.lvt = VirtualTime{lvt};
    ctx_.mailbox_.handshake_requested = false;
    ctx_.advance_to(ctx_.now() + SimTime::from_us(200));  // poll fires
  }

  FakeNicContext ctx_;
  std::unique_ptr<GvtFirmware> fw_;
};

TEST_F(GvtUnit, RootInitiatesAfterPeriodEvents) {
  ctx_.mailbox_.events_processed = 5;
  ctx_.advance_to(SimTime::from_us(100));
  EXPECT_TRUE(ctx_.delivered.empty()) << "below period: no estimation";
  ctx_.mailbox_.events_processed = 10;
  ctx_.advance_to(SimTime::from_us(200));
  EXPECT_FALSE(ctx_.delivered.empty()) << "period reached: handshake requested";
  EXPECT_TRUE(ctx_.mailbox_.handshake_requested);
}

TEST_F(GvtUnit, TokenForwardedAsWirePacketAfterWindow) {
  ctx_.mailbox_.events_processed = 10;
  ctx_.advance_to(SimTime::from_us(100));
  answer_handshake(500);
  // No event traffic to piggyback on: the poll must emit a dedicated token
  // to the next rank.
  ASSERT_FALSE(ctx_.emitted.empty());
  const hw::Packet& tok = ctx_.emitted.back();
  EXPECT_EQ(tok.hdr.kind, hw::PacketKind::kNicGvtToken);
  EXPECT_EQ(tok.hdr.dst, 1u);
  EXPECT_EQ(tok.hdr.gvt.round, 1);
  EXPECT_LE(tok.hdr.gvt.t, (VirtualTime{500}));
}

TEST_F(GvtUnit, TokenPiggybacksOnEventToNextRank) {
  ctx_.mailbox_.events_processed = 10;
  ctx_.advance_to(SimTime::from_us(100));
  answer_handshake(500);
  // Re-arm: completed? No — the token is outgoing. Build a fresh firmware
  // where a ride shows up within the window.
  GvtFirmwareOptions opts;
  opts.period = 10;
  opts.autonomy_us = 1e9;
  FakeNicContext ctx(0, 3);
  ctx.mailbox_.timewarp_initialised = true;
  GvtFirmware fw(opts);
  fw.attach(ctx);
  ctx.mailbox_.events_processed = 10;
  ctx.advance_to(SimTime::from_us(100));
  // Answer via piggybacked header (the other handshake path).
  const std::uint64_t epoch = ctx.delivered.back().hdr.gvt.epoch;
  hw::Packet reply = event_pkt(2, 1, 2, 100, 3000);
  reply.hdr.gvt_handshake = true;
  reply.hdr.gvt.epoch = epoch;
  reply.hdr.gvt.t = VirtualTime{321};
  fw.on_host_tx(reply);
  EXPECT_FALSE(reply.hdr.gvt_handshake) << "reply must be stripped";

  // An event packet bound for rank 1 departs: the token rides along.
  hw::Packet ride = event_pkt(1, 1, 2, 101, 3001);
  fw.on_wire_tx(ride);
  EXPECT_TRUE(ride.hdr.gvt_token_pb);
  EXPECT_EQ(ride.hdr.gvt.round, 1);
  EXPECT_EQ(ctx.stats_.value("gvt.tokens_piggybacked"), 1);
}

TEST_F(GvtUnit, WireColoringCountsAtExitAndEntry) {
  hw::Packet out = event_pkt(1, 1, 2, 100, 3002);
  fw_->on_wire_tx(out);
  EXPECT_EQ(out.hdr.color_epoch, 0u);  // epoch 0 before any estimation

  hw::Packet in = event_pkt(0, 5, 1, 90, 3003);
  in.hdr.color_epoch = 0;
  EXPECT_EQ(fw_->on_net_rx(in).action, hw::Firmware::Action::kForward);
  // (Counts are internal; the integration tests verify they drain. Here we
  // only verify coloring and that events still flow.)
}

TEST_F(GvtUnit, NonRootHoldsTokenUntilHandshake) {
  GvtFirmwareOptions opts;
  FakeNicContext ctx(1, 3);  // rank 1: not the root
  ctx.mailbox_.timewarp_initialised = true;
  GvtFirmware fw(opts);
  fw.attach(ctx);

  hw::Packet tok;
  tok.hdr.kind = hw::PacketKind::kNicGvtToken;
  tok.hdr.dst = 1;
  tok.hdr.gvt.epoch = 1;
  tok.hdr.gvt.round = 1;
  tok.hdr.gvt.t = VirtualTime{777};
  tok.hdr.gvt.tmin = VirtualTime::inf();
  EXPECT_EQ(fw.on_net_rx(tok).action, hw::Firmware::Action::kConsume);
  EXPECT_TRUE(ctx.mailbox_.handshake_requested);
  EXPECT_TRUE(ctx.emitted.empty()) << "must wait for the host's T";

  ctx.mailbox_.host_values.valid = true;
  ctx.mailbox_.host_values.epoch = 1;
  ctx.mailbox_.host_values.lvt = VirtualTime{600};
  ctx.advance_to(SimTime::from_us(200));
  ASSERT_FALSE(ctx.emitted.empty());
  EXPECT_EQ(ctx.emitted.back().hdr.dst, 2u);  // forwarded along the ring
  EXPECT_EQ(ctx.emitted.back().hdr.gvt.t, (VirtualTime{600}));
}

TEST_F(GvtUnit, BroadcastAdoptedAndReportedToHost) {
  hw::Packet bc;
  bc.hdr.kind = hw::PacketKind::kGvtBroadcast;
  bc.hdr.dst = 0;
  bc.hdr.gvt.gvt = VirtualTime{4242};
  bc.hdr.gvt.epoch = 3;
  EXPECT_EQ(fw_->on_net_rx(bc).action, hw::Firmware::Action::kConsume);
  EXPECT_EQ(ctx_.mailbox_.gvt, (VirtualTime{4242}));
  ASSERT_FALSE(ctx_.delivered.empty());
  EXPECT_EQ(ctx_.delivered.back().hdr.kind, hw::PacketKind::kGvtBroadcast);
}

// ---------------------------------------------------------------------------
// CombinedFirmware composition
// ---------------------------------------------------------------------------

TEST(CombinedUnit, HandshakeStrippedEvenWhenPacketDropped) {
  FakeNicContext ctx(0, 3);
  ctx.mailbox_.timewarp_initialised = true;
  GvtFirmwareOptions gopts;
  gopts.period = 1;
  gopts.autonomy_us = 1e9;
  CombinedFirmware fw(gopts, CancelFirmwareOptions{});
  fw.attach(ctx);

  // Start an estimation so a handshake is pending.
  ctx.mailbox_.events_processed = 1;
  ctx.advance_to(SimTime::from_us(100));
  ASSERT_TRUE(ctx.mailbox_.handshake_requested);
  const std::uint64_t epoch = ctx.delivered.back().hdr.gvt.epoch;

  // Prime a cancellation record so the carrier packet gets dropped.
  hw::Packet anti = event_pkt(0, 5, 7, 100, 9000, true);
  anti.hdr.recv_ts = VirtualTime{100};
  fw.on_net_rx(anti);

  // The handshake reply rides a DOOMED packet.
  hw::Packet carrier = event_pkt(1, 7, 9, 150, 9001, false, 0);
  carrier.hdr.gvt_handshake = true;
  carrier.hdr.gvt.epoch = epoch;
  carrier.hdr.gvt.t = VirtualTime{123};
  const auto r = fw.on_host_tx(carrier);
  EXPECT_EQ(r.action, hw::Firmware::Action::kDrop) << "cancellation dooms it";
  // ...but the GVT machinery must have consumed the reply first: the token
  // proceeds (queued for the ring) instead of deadlocking.
  ctx.advance_to(ctx.now() + SimTime::from_us(200));
  EXPECT_FALSE(ctx.emitted.empty()) << "token stuck: the handshake reply was lost";
}

TEST(CombinedUnit, TokenConsumptionShortCircuitsCancellation) {
  FakeNicContext ctx(1, 3);
  CombinedFirmware fw(GvtFirmwareOptions{}, CancelFirmwareOptions{});
  fw.attach(ctx);
  hw::Packet tok;
  tok.hdr.kind = hw::PacketKind::kNicGvtToken;
  tok.hdr.gvt.epoch = 1;
  tok.hdr.gvt.round = 1;
  EXPECT_EQ(fw.on_net_rx(tok).action, hw::Firmware::Action::kConsume);
}

}  // namespace
}  // namespace nicwarp::firmware

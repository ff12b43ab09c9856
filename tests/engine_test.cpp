// Regression tests for the descriptor-task engine scheduler (a binary heap
// of {when, seq, Target*, arg}, closures in a side slab) and the sweep
// runner's exception path.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "harness/experiment.hpp"
#include "sim/engine.hpp"

namespace nicwarp::sim {
namespace {

// Records each fire(arg). After respawn_on(arg, tag), firing `arg` also
// schedules a zero-delay Target task `tag` and a zero-delay closure
// recording `tag + 1`.
class Recorder final : public Target {
 public:
  Recorder(Engine& e, std::vector<int>& order) : e_(e), order_(order) {}
  void fire(std::uint64_t arg) override {
    order_.push_back(static_cast<int>(arg));
    if (respawn_tag_ != 0 && arg == respawn_on_) {
      const int tag = respawn_tag_;
      e_.schedule(SimTime::zero(), *this, static_cast<std::uint64_t>(tag));
      e_.schedule(SimTime::zero(), [this, tag] { order_.push_back(tag + 1); });
    }
  }
  void respawn_on(std::uint64_t arg, int tag) {
    respawn_on_ = arg;
    respawn_tag_ = tag;
  }

 private:
  Engine& e_;
  std::vector<int>& order_;
  std::uint64_t respawn_on_{0};
  int respawn_tag_{0};
};

// --- schedule-at-now ordering ----------------------------------------------

TEST(EngineSlotHeap, ZeroDelayFromCallbackRunsSameTimeInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(SimTime::from_ns(5), [&] {
    order.push_back(1);
    e.schedule(SimTime::zero(), [&] { order.push_back(3); });
    e.schedule_at(e.now(), [&] { order.push_back(4); });
    order.push_back(2);
  });
  e.schedule(SimTime::from_ns(5), [&] { order.push_back(5); });
  // The nested zero-delay tasks carry later sequence numbers than the
  // pre-scheduled same-time task, so they run after it.
  EXPECT_EQ(e.run(), 4u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 5, 3, 4}));
  EXPECT_EQ(e.now().ns, 5);
}

// --- descriptor tasks ------------------------------------------------------

TEST(EngineSlotHeap, TargetsAndClosuresAtEqualTimesRunInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  Recorder rec(e, order);
  e.schedule(SimTime::from_ns(9), rec, 90);  // later time, scheduled first
  for (int i = 0; i < 12; ++i) {
    if (i % 3 == 0) {
      e.schedule(SimTime::from_ns(5), [&order, i] { order.push_back(i); });
    } else {
      e.schedule_at(SimTime::from_ns(5), rec, static_cast<std::uint64_t>(i));
    }
  }
  // Task 4 (a Target) spawns two zero-delay tasks at t=5; they carry later
  // sequence numbers than every task above, so they run after task 11.
  rec.respawn_on(4, 50);
  EXPECT_EQ(e.run(), 15u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 50, 51, 90}));
  EXPECT_EQ(e.now().ns, 9);
}

TEST(EngineSlotHeap, HeavyCancelChurnKeepsHeapConsistent) {
  // The engine has no cancel(): a caller that no longer wants a task marks
  // it void and lets it fire as a no-op. A third of 1000 tasks are voided;
  // half of the rest reschedule a follow-on, as a Target task or a closure,
  // so the heap and the closure slab churn while they drain.
  Engine e;
  std::vector<int> tags;
  Recorder rec(e, tags);
  std::vector<std::int64_t> fired;
  std::vector<bool> voided(1000, false);
  std::uint64_t expected = 1000;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t ts = 1 + (i * 7919) % 503;
    e.schedule(SimTime::from_ns(ts), [&, i, ts] {
      if (voided[static_cast<std::size_t>(i)]) return;
      fired.push_back(e.now().ns);
      if (i % 4 == 0) e.schedule(SimTime::from_ns(ts % 37), rec, static_cast<std::uint64_t>(i));
      if (i % 4 == 2) {
        e.schedule(SimTime::from_ns(ts % 41), [&] { fired.push_back(e.now().ns); });
      }
    });
  }
  for (std::size_t i = 0; i < voided.size(); i += 3) voided[i] = true;
  for (int i = 0; i < 1000; ++i) {
    if (!voided[static_cast<std::size_t>(i)] && i % 2 == 0) ++expected;
  }
  EXPECT_EQ(e.run(), expected);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(fired.size() + tags.size(), expected - 334);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1], fired[i]) << "pop order must stay non-decreasing";
  }
}

// --- stop latch -------------------------------------------------------------

TEST(EngineSlotHeap, StopFromCallbackHaltsRunThenDrains) {
  Engine e;
  std::vector<int> order;
  e.schedule(SimTime::from_ns(1), [&] { order.push_back(1); });
  e.schedule(SimTime::from_ns(2), [&] {
    order.push_back(2);
    e.stop();
  });
  e.schedule(SimTime::from_ns(3), [&] { order.push_back(3); });
  EXPECT_EQ(e.run(), 2u);
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_FALSE(e.stopped()) << "the halted run consumes the latch";
  // The next run proceeds normally and drains the remainder.
  EXPECT_EQ(e.run(), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EngineSlotHeap, StopWhileIdleLatchesForNextRun) {
  Engine e;
  bool ran = false;
  e.stop();  // issued between runs: must halt the NEXT run before any work
  e.schedule(SimTime::from_ns(1), [&] { ran = true; });
  EXPECT_EQ(e.run_until(SimTime::from_ns(100)), 0u);
  EXPECT_FALSE(ran);
  EXPECT_EQ(e.run_until(SimTime::from_ns(100)), 1u);
  EXPECT_TRUE(ran);
}

}  // namespace
}  // namespace nicwarp::sim

// ---------------------------------------------------------------------------
// Sweep-runner crash fixes: a throwing config must fail its own row, not the
// process (an exception escaping a pool thread would std::terminate).
// ---------------------------------------------------------------------------

namespace nicwarp::harness {
namespace {

ExperimentConfig tiny_phold() {
  ExperimentConfig cfg;
  cfg.model = ModelKind::kPhold;
  cfg.nodes = 2;
  cfg.phold.objects = 8;
  cfg.phold.population = 1;
  cfg.phold.horizon = 200;
  return cfg;
}

TEST(BuildTestbedValidation, RejectsZeroNodes) {
  ExperimentConfig cfg = tiny_phold();
  cfg.nodes = 0;
  EXPECT_THROW(build_testbed(cfg), std::invalid_argument);
}

TEST(BuildTestbedValidation, RejectsEmptyWorkload) {
  ExperimentConfig cfg = tiny_phold();
  cfg.phold.objects = 0;
  EXPECT_THROW(build_testbed(cfg), std::invalid_argument);
}

TEST(RunParallelFailure, BadConfigFailsItsRowOnly) {
  ExperimentConfig bad = tiny_phold();
  bad.nodes = 0;
  const std::vector<ExperimentConfig> cfgs = {bad, tiny_phold()};
  const std::vector<ExperimentResult> rs = run_parallel(cfgs, 2);
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_TRUE(rs[0].failed());
  EXPECT_NE(rs[0].error.find("nodes"), std::string::npos) << rs[0].error;
  EXPECT_EQ(rs[0].committed_events, 0);
  EXPECT_FALSE(rs[1].failed());
  EXPECT_TRUE(rs[1].completed) << "the healthy config still runs to completion";
  EXPECT_GT(rs[1].committed_events, 0);
}

TEST(RunParallelFailure, AllConfigsFailingStillReturns) {
  ExperimentConfig bad = tiny_phold();
  bad.phold.objects = 0;
  const std::vector<ExperimentResult> rs = run_parallel({bad, bad, bad}, 3);
  ASSERT_EQ(rs.size(), 3u);
  for (const ExperimentResult& r : rs) {
    EXPECT_TRUE(r.failed());
    EXPECT_FALSE(r.completed);
  }
}

}  // namespace
}  // namespace nicwarp::harness

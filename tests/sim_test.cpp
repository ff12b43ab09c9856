// Unit tests for the hardware discrete-event engine and the FIFO work server.
#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"
#include "sim/server.hpp"

namespace nicwarp::sim {
namespace {

TEST(EngineTest, RunsCallbacksInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(SimTime::from_ns(30), [&] { order.push_back(3); });
  e.schedule(SimTime::from_ns(10), [&] { order.push_back(1); });
  e.schedule(SimTime::from_ns(20), [&] { order.push_back(2); });
  EXPECT_EQ(e.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now().ns, 30);
}

TEST(EngineTest, EqualTimesFireInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule(SimTime::from_ns(5), [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EngineTest, CallbacksMayScheduleMore) {
  Engine e;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) e.schedule(SimTime::from_ns(1), chain);
  };
  e.schedule(SimTime::from_ns(1), chain);
  e.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(e.now().ns, 5);
}

TEST(EngineTest, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  TaskHandle h = e.schedule(SimTime::from_ns(10), [&] { ran = true; });
  EXPECT_TRUE(e.cancel(h));
  EXPECT_FALSE(e.cancel(h));  // second cancel is a no-op
  e.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(EngineTest, RunUntilStopsAtDeadline) {
  Engine e;
  std::vector<int> order;
  e.schedule(SimTime::from_ns(10), [&] { order.push_back(1); });
  e.schedule(SimTime::from_ns(20), [&] { order.push_back(2); });
  e.schedule(SimTime::from_ns(30), [&] { order.push_back(3); });
  e.run_until(SimTime::from_ns(20));  // inclusive
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  e.run();
  EXPECT_EQ(order.size(), 3u);
}

TEST(EngineTest, StopRequestHalts) {
  Engine e;
  int fired = 0;
  e.schedule(SimTime::from_ns(1), [&] {
    ++fired;
    e.stop();
  });
  e.schedule(SimTime::from_ns(2), [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  e.run();  // resumes after stop
  EXPECT_EQ(fired, 2);
}

TEST(EngineTest, ZeroDelayRunsAtCurrentTime) {
  Engine e;
  SimTime seen{SimTime::max()};
  e.schedule(SimTime::from_ns(7), [&] {
    e.schedule(SimTime::zero(), [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen.ns, 7);
}

TEST(EngineTest, ExecutedCountAccumulates) {
  Engine e;
  for (int i = 0; i < 4; ++i) e.schedule(SimTime::from_ns(i), [] {});
  e.run();
  EXPECT_EQ(e.executed(), 4u);
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

TEST(ServerTest, JobsCompleteInFifoOrderWithQueueing) {
  Engine e;
  Server s(e, "cpu");
  std::vector<std::pair<int, std::int64_t>> done;  // (id, completion ns)
  s.submit(SimTime::from_ns(10), [&] { done.emplace_back(1, e.now().ns); });
  s.submit(SimTime::from_ns(5), [&] { done.emplace_back(2, e.now().ns); });
  s.submit(SimTime::from_ns(1), [&] { done.emplace_back(3, e.now().ns); });
  e.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], (std::pair<int, std::int64_t>{1, 10}));
  EXPECT_EQ(done[1], (std::pair<int, std::int64_t>{2, 15}));  // queued behind
  EXPECT_EQ(done[2], (std::pair<int, std::int64_t>{3, 16}));
}

TEST(ServerTest, BusyAccountingAndIdle) {
  Engine e;
  StatsRegistry stats;
  Server s(e, "cpu", &stats);
  EXPECT_TRUE(s.idle());
  s.submit(SimTime::from_ns(25), nullptr);
  EXPECT_FALSE(s.idle());
  e.run();
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(stats.value("cpu.busy_ns"), 25);
  EXPECT_EQ(stats.value("cpu.jobs"), 1);
}

TEST(ServerTest, DynamicCostEvaluatedAtServiceStart) {
  Engine e;
  StatsRegistry stats;
  Server s(e, "cpu", &stats);
  std::int64_t knob = 10;
  std::int64_t start2 = -1;
  s.submit(SimTime::from_ns(50), [&] { knob = 3; });
  s.submit_dynamic(
      [&] {
        start2 = e.now().ns;      // must run at t=50, after job 1
        return SimTime::from_ns(knob);  // sees the updated knob
      },
      nullptr);
  e.run();
  EXPECT_EQ(start2, 50);
  EXPECT_EQ(e.now().ns, 53);
  EXPECT_EQ(stats.value("cpu.busy_ns"), 53);
}

TEST(ServerTest, CompletionMaySubmitFollowOnWork) {
  Engine e;
  Server s(e, "cpu");
  std::vector<std::int64_t> at;
  s.submit(SimTime::from_ns(10), [&] {
    at.push_back(e.now().ns);
    s.submit(SimTime::from_ns(7), [&] { at.push_back(e.now().ns); });
  });
  e.run();
  EXPECT_EQ(at, (std::vector<std::int64_t>{10, 17}));
}

TEST(ServerTest, StatsRegistryIntegration) {
  Engine e;
  StatsRegistry stats;
  Server s(e, "mycpu", &stats);
  s.submit(SimTime::from_ns(40), nullptr);
  s.submit(SimTime::from_ns(2), nullptr);
  e.run();
  EXPECT_EQ(stats.value("mycpu.jobs"), 2);
  EXPECT_EQ(stats.value("mycpu.busy_ns"), 42);
}

TEST(ServerTest, QueueLengthObservable) {
  Engine e;
  Server s(e, "cpu");
  s.submit(SimTime::from_ns(10), nullptr);
  s.submit(SimTime::from_ns(10), nullptr);
  s.submit(SimTime::from_ns(10), nullptr);
  EXPECT_EQ(s.queue_length(), 2u);  // one in service, two waiting
  e.run();
  EXPECT_EQ(s.queue_length(), 0u);
}

TEST(ServerTest, ZeroCostJobsStillSerialize) {
  Engine e;
  Server s(e, "cpu");
  std::vector<int> order;
  s.submit(SimTime::zero(), [&] { order.push_back(1); });
  s.submit(SimTime::zero(), [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace nicwarp::sim

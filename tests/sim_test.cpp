// Unit tests for the hardware discrete-event engine and the FIFO work server.
#include <gtest/gtest.h>

#include <utility>
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

// Start hooks that submit to their own server, the shape of NIC firmware
// emit -> pump_tx -> nic_cpu_. Each stage-0 job submits 20 stage-1 jobs from
// inside its start hook, so the job ring regrows under the running job.
class Spawner final : public Owner {
 public:
  Spawner(Engine& e, Server& s) : e_(e), s_(s) {}
  SimTime start_job(std::uint32_t stage, std::uint64_t arg) override {
    started.push_back(arg);
    if (stage == 0) {
      for (std::uint64_t i = 0; i < 20; ++i) s_.submit_dynamic(*this, 1, arg * 100 + i);
    }
    return SimTime::from_ns(static_cast<std::int64_t>(arg % 7 + 1));
  }
  void finish_job(std::uint32_t stage, std::uint64_t arg) override {
    finished.push_back(arg);
    stages.push_back(stage);
    finished_at.push_back(e_.now().ns);
  }
  std::vector<std::uint64_t> started;
  std::vector<std::uint64_t> finished;
  std::vector<std::uint32_t> stages;
  std::vector<std::int64_t> finished_at;

 private:
  Engine& e_;
  Server& s_;
};

TEST(ServerTest, StartHookMaySubmitToItsOwnServerWhileTheRingGrows) {
  Engine e;
  StatsRegistry stats;
  Server s(e, "nic", &stats);
  Spawner owner(e, s);
  s.submit_dynamic(owner, 0, 1);
  // Job 1 started on submission, so its 20 children are queued before job 2.
  s.submit_dynamic(owner, 0, 2);
  e.run();

  std::vector<std::uint64_t> expect{1};
  for (std::uint64_t i = 0; i < 20; ++i) expect.push_back(100 + i);
  expect.push_back(2);
  for (std::uint64_t i = 0; i < 20; ++i) expect.push_back(200 + i);
  EXPECT_EQ(owner.started, expect);
  EXPECT_EQ(owner.finished, expect) << "FIFO completion, each job intact";
  std::vector<std::uint32_t> stages(42, 1);
  stages[0] = 0;
  stages[21] = 0;
  EXPECT_EQ(owner.stages, stages);
  std::int64_t busy = 0;
  for (const std::uint64_t a : expect) busy += static_cast<std::int64_t>(a % 7 + 1);
  EXPECT_EQ(owner.finished_at.back(), busy);
  EXPECT_EQ(stats.value("nic.jobs"), 42);
  EXPECT_EQ(stats.value("nic.busy_ns"), busy);
}

// Records completions of descriptor jobs; stage 1 jobs give their cost at
// service start.
class Logger final : public Owner {
 public:
  Logger(Engine& e, std::vector<std::pair<int, std::int64_t>>& done) : e_(e), done_(done) {}
  SimTime start_job(std::uint32_t, std::uint64_t arg) override {
    return SimTime::from_ns(static_cast<std::int64_t>(arg));
  }
  void finish_job(std::uint32_t, std::uint64_t arg) override {
    done_.emplace_back(static_cast<int>(arg), e_.now().ns);
  }

 private:
  Engine& e_;
  std::vector<std::pair<int, std::int64_t>>& done_;
};

TEST(ServerTest, DescriptorClosureAndTimeOnlyJobsCompleteInSubmissionOrder) {
  // The same schedule twice: once mixing the five kinds of job, once as
  // closures only. Completion order, completion times and the utilization
  // counters must agree.
  Engine e;
  StatsRegistry stats;
  Server mixed(e, "mixed", &stats);
  Server plain(e, "plain", &stats);
  std::vector<std::pair<int, std::int64_t>> done_mixed;
  std::vector<std::pair<int, std::int64_t>> done_plain;
  Logger owner(e, done_mixed);
  const auto log = [&e](std::vector<std::pair<int, std::int64_t>>& d, int tag) {
    return [&e, &d, tag] { d.emplace_back(tag, e.now().ns); };
  };
  for (int round = 0; round < 3; ++round) {
    const int t = 10 * round;
    mixed.submit(SimTime::from_ns(t + 4), owner, 0, static_cast<std::uint64_t>(t + 1));
    plain.submit(SimTime::from_ns(t + 4), log(done_plain, t + 1));
    mixed.submit(SimTime::from_ns(t + 5), log(done_mixed, t + 2));
    plain.submit(SimTime::from_ns(t + 5), log(done_plain, t + 2));
    mixed.submit(SimTime::from_ns(7), nullptr);
    plain.submit(SimTime::from_ns(7), [] {});
    mixed.submit_dynamic(owner, 1, static_cast<std::uint64_t>(t + 3));
    plain.submit_dynamic([t] { return SimTime::from_ns(t + 3); }, log(done_plain, t + 3));
    mixed.submit_dynamic([t] { return SimTime::from_ns(t + 6); }, log(done_mixed, t + 4));
    plain.submit_dynamic([t] { return SimTime::from_ns(t + 6); }, log(done_plain, t + 4));
  }
  EXPECT_EQ(mixed.queue_length(), 14u);
  e.run();
  ASSERT_EQ(done_mixed.size(), 12u);
  EXPECT_EQ(done_mixed, done_plain);
  for (std::size_t i = 1; i < done_mixed.size(); ++i) {
    EXPECT_LT(done_mixed[i - 1].first, done_mixed[i].first) << "submission order";
  }
  EXPECT_EQ(stats.value("mixed.jobs"), 15);
  EXPECT_EQ(stats.value("mixed.jobs"), stats.value("plain.jobs"));
  EXPECT_EQ(stats.value("mixed.busy_ns"), stats.value("plain.busy_ns"));
}

}  // namespace
}  // namespace nicwarp::sim

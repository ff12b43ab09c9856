// Allocation gates for the simulator's hot paths: stats recording, server
// jobs and engine tasks.
//
// This binary replaces the global operator new with a counting one, so it is
// kept apart from the other test binaries. Each case warms its structures up
// first: first-use growth and first-add counter registration may allocate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "core/stats.hpp"
#include "sim/engine.hpp"
#include "sim/server.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Not inlined: GCC would otherwise see gtest's `new` paired with free().
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace nicwarp {
namespace {

std::size_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

TEST(AllocTest, CounterIsLive) {
  // Guards the gate itself: a replaced operator new that is never called
  // would make every case below pass vacuously. (A bare new/delete pair may
  // be elided by the compiler; a string that outgrows its inline buffer is
  // not.)
  const std::size_t before = allocations();
  std::string s(64, 'x');
  EXPECT_EQ(allocations() - before, 1u);
  EXPECT_EQ(s.size(), 64u);
}

TEST(AllocTest, HandleAddsAfterTheFirstAllocateNothing) {
  StatsRegistry stats;
  CounterHandle busy(stats, "host12.cpu", ".busy_ns");
  CounterHandle packets(stats, "net.packets");
  busy.add(1);  // the first add registers the name (and may allocate)
  packets.add(1);

  const std::size_t before = allocations();
  for (int i = 0; i < 5000; ++i) {
    busy.add(i);
    packets.add();
  }
  const std::size_t allocated = allocations() - before;

  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(stats.value("host12.cpu.busy_ns"), 1 + 5000LL * 4999 / 2);
  EXPECT_EQ(stats.value("net.packets"), 5001);
}

// Runs `rounds` rounds of five jobs through `cpu`: one in service and four
// queued behind it, one of them with a cost known only at service start.
// Returns the allocations the rounds made.
std::size_t run_jobs(sim::Engine& engine, sim::Server& cpu, int rounds) {
  const std::size_t before = allocations();
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < 4; ++i) cpu.submit(SimTime::from_ns(3 + i), nullptr);
    cpu.submit_dynamic([] { return SimTime::from_ns(2); }, nullptr);
    engine.run();
  }
  return allocations() - before;
}

TEST(AllocTest, ServerJobsAllocateNoMoreWithARegistry) {
  // "host12.cpu.busy_ns" is too long for the small-string buffer, so
  // building the key per job would allocate once per job.
  sim::Engine bare_engine;
  sim::Server bare(bare_engine, "host12.cpu");
  sim::Engine counted_engine;
  StatsRegistry stats;
  sim::Server counted(counted_engine, "host12.cpu", &stats);
  run_jobs(bare_engine, bare, 8);  // engines, queues and counters warm up here
  run_jobs(counted_engine, counted, 8);

  const std::size_t without = run_jobs(bare_engine, bare, 2000);  // 10,000 jobs
  const std::size_t with = run_jobs(counted_engine, counted, 2000);

  EXPECT_EQ(with, without);
  EXPECT_EQ(stats.value("host12.cpu.jobs"), 2008 * 5);
  EXPECT_EQ(stats.value("host12.cpu.busy_ns"), 2008 * (3 + 4 + 5 + 6 + 2));
}

// Counts descriptor jobs (stage 1 gives its cost at service start) and
// Target tasks.
class Tally final : public sim::Owner, public sim::Target {
 public:
  SimTime start_job(std::uint32_t, std::uint64_t arg) override {
    return SimTime::from_ns(static_cast<std::int64_t>(arg));
  }
  void finish_job(std::uint32_t stage, std::uint64_t arg) override {
    jobs += 1;
    sum += static_cast<std::int64_t>(stage + arg);
  }
  void fire(std::uint64_t arg) override {
    tasks += 1;
    sum += static_cast<std::int64_t>(arg);
  }
  std::int64_t jobs{0};
  std::int64_t tasks{0};
  std::int64_t sum{0};
};

// Runs `rounds` rounds of five descriptor jobs (four fixed-cost, one
// dynamic) and five Target tasks. Returns the allocations the rounds made.
std::size_t run_descriptors(sim::Engine& engine, sim::Server& cpu, Tally& owner,
                            int rounds) {
  const std::size_t before = allocations();
  for (int r = 0; r < rounds; ++r) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      cpu.submit(SimTime::from_ns(static_cast<std::int64_t>(3 + i)), owner, 0, i);
    }
    cpu.submit_dynamic(owner, 1, 2);
    for (std::uint64_t i = 0; i < 5; ++i) {
      engine.schedule(SimTime::from_ns(static_cast<std::int64_t>(i)), owner, i);
    }
    engine.run();
  }
  return allocations() - before;
}

TEST(AllocTest, DescriptorJobsAndTargetTasksAllocateNothing) {
  sim::Engine engine;
  StatsRegistry stats;
  sim::Server cpu(engine, "host12.cpu", &stats);
  Tally owner;
  run_descriptors(engine, cpu, owner, 8);  // heap, ring and counters warm up

  const std::size_t allocated = run_descriptors(engine, cpu, owner, 2000);

  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(owner.jobs, 2008 * 5);   // 10,000 jobs after warm-up
  EXPECT_EQ(owner.tasks, 2008 * 5);  // and 10,000 Target tasks
  EXPECT_EQ(stats.value("host12.cpu.busy_ns"), 2008 * (3 + 4 + 5 + 6 + 2));
}

}  // namespace
}  // namespace nicwarp

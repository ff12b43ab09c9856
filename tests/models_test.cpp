// Workload-model tests: construction/partitioning invariants plus model-level
// conservation laws (e.g. RAID commits exactly four events per disk request).
#include <gtest/gtest.h>

#include <ostream>

#include "harness/experiment.hpp"

namespace nicwarp::models {
namespace {

TEST(RaidModelTest, BuildPartitionsAllObjects) {
  RaidParams p;
  p.sources = 10;
  p.forks = 8;
  p.disks = 8;
  BuiltModel m = build_raid(p, 8);
  ASSERT_EQ(m.per_node.size(), 8u);
  std::size_t total = 0;
  for (const auto& v : m.per_node) total += v.size();
  EXPECT_EQ(total, 26u);
  EXPECT_EQ(m.partition->owner.size(), 26u);
  // Round-robin: every object is where the partition says it is.
  for (std::uint32_t n = 0; n < 8; ++n) {
    for (const auto& obj : m.per_node[n]) EXPECT_EQ(m.partition->of(obj->id()), n);
  }
}

TEST(RaidModelTest, QuotaSplitsExactly) {
  RaidParams p;
  p.sources = 3;
  p.total_requests = 10;  // 4 + 3 + 3
  BuiltModel m = build_raid(p, 1);
  // Run it and count: each request contributes exactly 4 committed events
  // (issue, fork routing, disk service, reply).
  harness::ExperimentConfig cfg;
  cfg.model = harness::ModelKind::kRaid;
  cfg.raid = p;
  cfg.nodes = 1;
  cfg.max_sim_seconds = 120;
  const auto r = harness::run_experiment(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.committed_events, 4 * p.total_requests);
}

TEST(RaidModelTest, ConservationAcrossCluster) {
  harness::ExperimentConfig cfg;
  cfg.model = harness::ModelKind::kRaid;
  cfg.raid.sources = 10;
  cfg.raid.total_requests = 2000;
  cfg.nodes = 8;
  cfg.gvt_mode = warped::GvtMode::kNic;
  cfg.seed = 3;
  cfg.max_sim_seconds = 120;
  const auto r = harness::run_experiment(cfg);
  ASSERT_TRUE(r.completed);
  // 4 committed events per request, regardless of how many rollbacks the
  // optimistic execution burned on the way.
  EXPECT_EQ(r.committed_events, 4 * cfg.raid.total_requests);
  EXPECT_GT(r.rollbacks, 0) << "an 8-node optimistic run should roll back sometimes";
}

TEST(PoliceModelTest, BuildScalesAutomatically) {
  PoliceParams p;
  p.stations = 1000;
  EXPECT_EQ(p.effective_hubs(), 20);
  EXPECT_EQ(p.effective_seed_window(), 333);
  p.stations = 100;
  EXPECT_EQ(p.effective_hubs(), 8);   // floor
  EXPECT_EQ(p.effective_seed_window(), 50);
  p.hubs = 5;
  p.seed_window = 77;
  EXPECT_EQ(p.effective_hubs(), 5);   // explicit values win
  EXPECT_EQ(p.effective_seed_window(), 77);
}

TEST(PoliceModelTest, EveryStationPlacedOnce) {
  PoliceParams p;
  p.stations = 123;
  BuiltModel m = build_police(p, 8);
  std::size_t total = 0;
  for (const auto& v : m.per_node) total += v.size();
  EXPECT_EQ(total, 123u);
  EXPECT_EQ(m.partition->owner.size(), 123u);
}

TEST(PoliceModelTest, CallsRespectTtl) {
  // With H hops per call and B notifications per hop, committed events are
  // bounded by calls * (H+1) * (1 + burst_max).
  harness::ExperimentConfig cfg;
  cfg.model = harness::ModelKind::kPolice;
  cfg.police.stations = 100;
  cfg.police.hops_per_call = 10;
  cfg.nodes = 4;
  cfg.seed = 9;
  cfg.max_sim_seconds = 120;
  const auto r = harness::run_experiment(cfg);
  ASSERT_TRUE(r.completed);
  const std::int64_t max_calls = cfg.police.stations;  // at most one each
  const std::int64_t bound =
      max_calls * (cfg.police.hops_per_call + 1) * (1 + cfg.police.burst_max);
  EXPECT_GT(r.committed_events, 0);
  EXPECT_LE(r.committed_events, bound);
}

TEST(PholdModelTest, HorizonBoundsVirtualTime) {
  harness::ExperimentConfig cfg;
  cfg.model = harness::ModelKind::kPhold;
  cfg.phold.objects = 16;
  cfg.phold.population = 3;
  cfg.phold.horizon = 500;
  cfg.nodes = 4;
  cfg.max_sim_seconds = 120;
  const auto r = harness::run_experiment(cfg);
  ASSERT_TRUE(r.completed);
  // Events stop at the horizon: at most population*objects chains, each with
  // ~horizon/1 steps is a loose bound; the point is it terminates and
  // commits a plausible amount.
  EXPECT_GT(r.committed_events, cfg.phold.objects * cfg.phold.population);
}

TEST(PholdModelTest, MoreObjectsMoreWork) {
  auto run = [](std::int64_t objects) {
    harness::ExperimentConfig cfg;
    cfg.model = harness::ModelKind::kPhold;
    cfg.phold.objects = objects;
    cfg.phold.horizon = 800;
    cfg.nodes = 4;
    cfg.max_sim_seconds = 120;
    return harness::run_experiment(cfg);
  };
  const auto small = run(8);
  const auto big = run(64);
  ASSERT_TRUE(small.completed);
  ASSERT_TRUE(big.completed);
  EXPECT_GT(big.committed_events, small.committed_events * 3);
}

// Model determinism: two identical builds run to identical results and two
// different seeds diverge.
struct ModelCase {
  harness::ModelKind kind;
  const char* name;
};

// CMake's test discovery copies gtest's printout of the parameter into each
// test's name. The default printout dumps the struct's bytes, whose string
// address and padding change from one build to the next.
void PrintTo(const ModelCase& c, std::ostream* os) { *os << c.name; }

class ModelDeterminism : public ::testing::TestWithParam<ModelCase> {};

harness::ExperimentConfig tiny_config(harness::ModelKind kind, std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.model = kind;
  cfg.raid.total_requests = 1200;
  cfg.police.stations = 120;
  cfg.police.hops_per_call = 10;
  cfg.phold.objects = 24;
  cfg.phold.horizon = 800;
  cfg.nodes = 4;
  cfg.seed = seed;
  cfg.max_sim_seconds = 120;
  return cfg;
}

TEST_P(ModelDeterminism, SameSeedSameEverything) {
  const auto a = harness::run_experiment(tiny_config(GetParam().kind, 77));
  const auto b = harness::run_experiment(tiny_config(GetParam().kind, 77));
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.signature, b.signature);
  EXPECT_EQ(a.committed_events, b.committed_events);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds);  // bitwise deterministic
  EXPECT_EQ(a.wire_packets, b.wire_packets);
}

TEST_P(ModelDeterminism, DifferentSeedsDiverge) {
  const auto a = harness::run_experiment(tiny_config(GetParam().kind, 77));
  const auto b = harness::run_experiment(tiny_config(GetParam().kind, 78));
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_NE(a.signature, b.signature);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelDeterminism,
    ::testing::Values(ModelCase{harness::ModelKind::kRaid, "raid"},
                      ModelCase{harness::ModelKind::kPolice, "police"},
                      ModelCase{harness::ModelKind::kPhold, "phold"}),
    [](const ::testing::TestParamInfo<ModelCase>& info) { return info.param.name; });

}  // namespace
}  // namespace nicwarp::models

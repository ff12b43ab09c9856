// Property/stress tests: randomized inputs checked against simple reference
// implementations or algebraic invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <queue>

#include "core/rng.hpp"
#include "harness/experiment.hpp"
#include "hw/fault.hpp"
#include "sim/engine.hpp"
#include "sim/server.hpp"
#include "warped/event.hpp"
#include "warped/lp.hpp"

namespace nicwarp {
namespace {

// ---------------------------------------------------------------------------
// Engine vs a reference priority queue.
// ---------------------------------------------------------------------------

class EngineRandomSchedule : public ::testing::TestWithParam<std::uint64_t> {};

// Tags each fire(arg) into the shared order, unless the caller voided it.
class TagTarget final : public sim::Target {
 public:
  TagTarget(std::vector<int>& order, const std::vector<bool>& voided)
      : order_(order), voided_(voided) {}
  void fire(std::uint64_t arg) override {
    if (!voided_[arg]) order_.push_back(static_cast<int>(arg));
  }

 private:
  std::vector<int>& order_;
  const std::vector<bool>& voided_;
};

TEST_P(EngineRandomSchedule, MatchesReferenceOrderWithCancellations) {
  // The engine has no cancel(): callers cancel a task by voiding it, so it
  // fires as a no-op. Tasks are a random mix of Target descriptors and
  // closures; the non-voided ones must run in (when, schedule order).
  Rng rng(GetParam(), "engine-prop");
  sim::Engine eng;

  struct Ref {
    std::int64_t when;
    std::uint64_t seq;
    int tag;
    bool operator>(const Ref& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };
  std::priority_queue<Ref, std::vector<Ref>, std::greater<>> ref;
  std::vector<int> engine_order;
  std::vector<bool> voided(500, false);
  TagTarget target(engine_order, voided);
  std::vector<Ref> entries;

  std::uint64_t seq = 0;
  for (int i = 0; i < 500; ++i) {
    const auto when = rng.uniform(0, 1000);
    if (rng.chance(0.5)) {
      eng.schedule(SimTime::from_ns(when), target, static_cast<std::uint64_t>(i));
    } else {
      eng.schedule(SimTime::from_ns(when), [i, &engine_order, &voided] {
        if (!voided[static_cast<std::size_t>(i)]) engine_order.push_back(i);
      });
    }
    entries.push_back(Ref{when, seq++, i});
  }
  // Cancel a random ~20%.
  for (int i = 0; i < 500; ++i) {
    if (rng.chance(0.2)) voided[static_cast<std::size_t>(i)] = true;
  }
  for (const Ref& r : entries) {
    if (!voided[static_cast<std::size_t>(r.tag)]) ref.push(r);
  }
  EXPECT_EQ(eng.run(), 500u);

  std::vector<int> ref_order;
  while (!ref.empty()) {
    ref_order.push_back(ref.top().tag);
    ref.pop();
  }
  EXPECT_EQ(engine_order, ref_order);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineRandomSchedule, ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Server: busy time equals the sum of job costs; completions keep order.
// ---------------------------------------------------------------------------

class ServerRandomLoad : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ServerRandomLoad, ConservationOfBusyTime) {
  Rng rng(GetParam(), "server-prop");
  sim::Engine eng;
  StatsRegistry stats;
  sim::Server srv(eng, "cpu", &stats);
  std::int64_t total_cost = 0;
  std::vector<int> completions;
  int submitted = 0;

  // Jobs arrive in bursts at random times.
  for (int burst = 0; burst < 20; ++burst) {
    const auto at = rng.uniform(0, 5000);
    const int n = static_cast<int>(rng.uniform(1, 5));
    eng.schedule(SimTime::from_ns(at), [&, n] {
      for (int j = 0; j < n; ++j) {
        const auto cost = rng.uniform(1, 100);
        total_cost += cost;
        const int id = submitted++;
        srv.submit(SimTime::from_ns(cost), [&, id] { completions.push_back(id); });
      }
    });
  }
  eng.run();
  EXPECT_EQ(stats.value("cpu.busy_ns"), total_cost);
  EXPECT_EQ(static_cast<int>(completions.size()), submitted);
  EXPECT_TRUE(std::is_sorted(completions.begin(), completions.end()))
      << "FIFO service must complete jobs in submission order";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServerRandomLoad, ::testing::Values(7, 8, 9));

// ---------------------------------------------------------------------------
// Event identity: deterministic, collision-free in realistic volumes.
// ---------------------------------------------------------------------------

TEST(EventIdProperty, DeterministicAndDistinct) {
  std::map<EventId, std::tuple<EventId, ObjectId, std::uint32_t>> seen;
  Rng rng(99, "ids");
  for (int i = 0; i < 200000; ++i) {
    const EventId parent = rng.next_u64();
    const auto src = static_cast<ObjectId>(rng.uniform(0, 4000));
    const auto idx = static_cast<std::uint32_t>(rng.uniform(0, 8));
    const EventId id = warped::make_event_id(parent, src, idx);
    EXPECT_EQ(id, warped::make_event_id(parent, src, idx)) << "must be a pure function";
    auto [it, fresh] = seen.emplace(id, std::make_tuple(parent, src, idx));
    if (!fresh) {
      EXPECT_EQ(it->second, std::make_tuple(parent, src, idx))
          << "hash collision between distinct send identities";
    }
  }
}

TEST(EventOrderProperty, IsAStrictTotalOrderOnDistinctEvents) {
  Rng rng(123, "order");
  std::vector<warped::EventMsg> evs;
  for (int i = 0; i < 300; ++i) {
    warped::EventMsg e;
    e.recv_ts = VirtualTime{rng.uniform(0, 20)};  // many ties
    e.dst_obj = static_cast<ObjectId>(rng.uniform(0, 3));
    e.id = static_cast<EventId>(i);
    evs.push_back(e);
  }
  warped::EventOrder lt;
  std::sort(evs.begin(), evs.end(), lt);
  for (std::size_t i = 0; i + 1 < evs.size(); ++i) {
    EXPECT_TRUE(lt(evs[i], evs[i + 1]) || !lt(evs[i + 1], evs[i]));
    EXPECT_FALSE(lt(evs[i], evs[i]));  // irreflexive
  }
  // Antisymmetry on a random sample.
  for (int k = 0; k < 1000; ++k) {
    const auto& a = evs[rng.next_below(evs.size())];
    const auto& b = evs[rng.next_below(evs.size())];
    if (lt(a, b)) EXPECT_FALSE(lt(b, a));
  }
}

// ---------------------------------------------------------------------------
// LogicalProcess vs a sequential reference under random insertion schedules.
// ---------------------------------------------------------------------------

struct PropState : warped::CloneableState<PropState> {
  std::int64_t acc{0};
};

class PropObject final : public warped::SimulationObject {
 public:
  explicit PropObject(ObjectId id)
      : SimulationObject(id, "prop" + std::to_string(id), std::make_unique<PropState>()) {}
  void initialize(warped::ObjectContext&) override {}
  void execute(warped::ObjectContext& ctx, const warped::EventMsg& ev) override {
    auto& st = state_as<PropState>();
    // Order-sensitive state update: catches any deviation from canonical order.
    // Folded in uint64 so wraparound is defined.
    st.acc = static_cast<std::int64_t>(static_cast<std::uint64_t>(st.acc) * 31 +
                                       static_cast<std::uint64_t>(ev.data.at(0)) +
                                       static_cast<std::uint64_t>(ctx.now().t));
    ctx.fold_signature(st.acc);
  }
};

class LpRandomSchedule : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpRandomSchedule, CommitsCanonicalResultUnderAnyArrivalOrder) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed, "lp-prop");

  // A fixed random event set.
  std::vector<warped::EventMsg> evs;
  for (int i = 0; i < 120; ++i) {
    warped::EventMsg e;
    e.src_obj = 999;
    e.dst_obj = static_cast<ObjectId>(rng.uniform(0, 3));
    e.recv_ts = VirtualTime{rng.uniform(1, 40)};  // dense ties
    e.send_ts = VirtualTime{e.recv_ts.t - 1};
    e.id = 5000 + static_cast<EventId>(i);
    e.data = {rng.uniform(-50, 50)};
    evs.push_back(e);
  }

  auto make_lp = [&](StatsRegistry& st, warped::RollbackScope scope) {
    auto lp = std::make_unique<warped::LogicalProcess>(0, st, seed, scope);
    for (ObjectId o = 0; o < 4; ++o) lp->add_object(std::make_unique<PropObject>(o));
    lp->set_paranoia(true);
    return lp;
  };
  auto drain = [](warped::LogicalProcess& lp) {
    while (lp.has_ready_event()) lp.execute_next();
  };

  // Reference: everything inserted up front, processed in canonical order.
  StatsRegistry s0;
  auto ref = make_lp(s0, warped::RollbackScope::kObject);
  for (const auto& e : evs) ref->insert(e);
  drain(*ref);

  for (warped::RollbackScope scope :
       {warped::RollbackScope::kObject, warped::RollbackScope::kLp}) {
    // Adversarial schedule: interleave random insertions with eager
    // processing, so events constantly arrive as stragglers.
    StatsRegistry s1;
    auto lp = make_lp(s1, scope);
    std::vector<warped::EventMsg> shuffled = evs;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
    }
    for (const auto& e : shuffled) {
      lp->insert(e);
      const auto steps = rng.uniform(0, 3);
      for (std::int64_t k = 0; k < steps && lp->has_ready_event(); ++k) {
        lp->execute_next();
      }
    }
    drain(*lp);
    EXPECT_EQ(lp->signature_sum(), ref->signature_sum())
        << "scope " << static_cast<int>(scope) << " diverged from canonical";
    EXPECT_GT(lp->rollbacks(), 0u) << "the schedule was supposed to be adversarial";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpRandomSchedule,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

// Anti-message fuzz: every positive is eventually cancelled; the LP must end
// empty with zero signature delta.
class LpAntiFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpAntiFuzz, FullCancellationLeavesNoTrace) {
  Rng rng(GetParam(), "anti-fuzz");
  StatsRegistry st;
  warped::LogicalProcess lp(0, st, GetParam(), warped::RollbackScope::kLp);
  for (ObjectId o = 0; o < 3; ++o) lp.add_object(std::make_unique<PropObject>(o));
  lp.set_paranoia(true);
  const std::int64_t base_sig = lp.signature_sum();

  std::vector<warped::EventMsg> evs;
  for (int i = 0; i < 60; ++i) {
    warped::EventMsg e;
    e.src_obj = 999;
    e.dst_obj = static_cast<ObjectId>(rng.uniform(0, 2));
    e.recv_ts = VirtualTime{rng.uniform(1, 30)};
    e.send_ts = VirtualTime{e.recv_ts.t - 1};
    e.id = 9000 + static_cast<EventId>(i);
    e.data = {i};
    evs.push_back(e);
  }
  // Insert positives (processing some), then cancel ALL of them in a random
  // order, processing in between.
  for (const auto& e : evs) {
    lp.insert(e);
    if (rng.chance(0.5) && lp.has_ready_event()) lp.execute_next();
  }
  std::vector<warped::EventMsg> antis = evs;
  for (std::size_t i = antis.size(); i > 1; --i) {
    std::swap(antis[i - 1], antis[rng.next_below(i)]);
  }
  for (const auto& e : antis) {
    lp.insert(e.as_anti());
    if (rng.chance(0.3) && lp.has_ready_event()) lp.execute_next();
  }
  while (lp.has_ready_event()) lp.execute_next();

  EXPECT_EQ(lp.signature_sum(), base_sig) << "a cancelled event left state behind";
  EXPECT_EQ(lp.total_pending(), 0u);
  EXPECT_EQ(lp.orphan_antis(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpAntiFuzz, ::testing::Values(21, 22, 23, 24, 25, 26));

// ---------------------------------------------------------------------------
// Chaos: the full testbed under randomized fabric fault schedules.
//
// The central robustness property of the reliability layer: for ANY fault
// plan within its envelope (loss <= 5%, duplication, corruption, delay) every
// scenario still terminates and commits a byte-identical simulation state —
// faults may change how long recovery takes, never what the simulation
// computes. Checked per GVT manager, since each has its own recovery story
// (NIC token regeneration, sequenced host tokens, counted pGVT acks).
// ---------------------------------------------------------------------------

struct ChaosCase {
  const char* name;
  hw::FaultPlan plan;
};

class ChaosSignature : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSignature, CommittedStateMatchesFaultFreeRun) {
  std::vector<ChaosCase> cases;
  {
    hw::FaultPlan p;
    p.drop_rate = 0.01;
    cases.push_back({"drop1", p});
  }
  {
    hw::FaultPlan p;
    p.drop_rate = 0.02;
    p.dup_rate = 0.02;
    cases.push_back({"drop+dup", p});
  }
  {
    hw::FaultPlan p;
    p.corrupt_rate = 0.02;
    p.delay_rate = 0.05;
    p.delay_max_us = 40.0;
    cases.push_back({"corrupt+delay", p});
  }
  {
    hw::FaultPlan p;
    p.drop_rate = 0.05;
    p.dup_rate = 0.01;
    p.corrupt_rate = 0.01;
    p.delay_rate = 0.02;
    cases.push_back({"mixed5", p});
  }

  const warped::GvtMode modes[] = {warped::GvtMode::kNic, warped::GvtMode::kHostMattern,
                                   warped::GvtMode::kPGvt};
  for (const warped::GvtMode mode : modes) {
    for (const bool cancel : {false, true}) {
      harness::ExperimentConfig cfg;
      cfg.model = harness::ModelKind::kRaid;
      cfg.raid.total_requests = 600;
      cfg.nodes = 4;
      cfg.gvt_mode = mode;
      cfg.early_cancel = cancel;
      cfg.paranoia_checks = true;
      const harness::ExperimentResult clean = harness::run_experiment(cfg);
      ASSERT_TRUE(clean.completed);

      std::int64_t recoveries = 0;
      for (const ChaosCase& c : cases) {
        harness::ExperimentConfig chaos = cfg;
        chaos.fault = c.plan;
        chaos.fault.seed = GetParam();
        const harness::ExperimentResult r = harness::run_experiment(chaos);
        const char* mode_name = mode == warped::GvtMode::kNic        ? "nic"
                                : mode == warped::GvtMode::kHostMattern ? "mattern"
                                                                        : "pgvt";
        SCOPED_TRACE(::testing::Message() << mode_name << (cancel ? "+cancel" : "")
                                          << " / " << c.name << " / seed "
                                          << GetParam());
        ASSERT_TRUE(r.completed) << "chaos run hit the simulated-time cap";
        // Recovery may cost time, never correctness: identical commits.
        EXPECT_EQ(r.signature, clean.signature);
        EXPECT_EQ(r.committed_events, clean.committed_events);
        EXPECT_TRUE(r.final_gvt.is_inf());
        // Injection actually happened, and no loss became unrecoverable.
        EXPECT_GT(r.fault_drops + r.fault_dups + r.fault_corrupts + r.fault_delays, 0);
        EXPECT_EQ(r.retx_evicted, 0);
        recoveries += r.retransmits + r.naks_sent + r.gvt_token_regens +
                      r.rel_crc_discards + r.rel_dup_discards;
      }
      // Across the plans, this mode exercised the recovery machinery.
      EXPECT_GT(recoveries, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FaultSeeds, ChaosSignature, ::testing::Values(1, 2, 3));

// Incremental state saving under the same chaos envelope: for every fault
// plan and seed, the undo-log run commits byte-for-byte the same state as
// the full-copy run of the same plan. Faults force deep and oddly-shaped
// rollbacks (delayed stragglers, regenerated tokens), which is exactly the
// stress the record-before-write log has to survive.
class ChaosIncrementalTwin : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosIncrementalTwin, MatchesFullCopyUnderFaults) {
  std::vector<ChaosCase> cases;
  {
    hw::FaultPlan p;
    p.drop_rate = 0.01;
    cases.push_back({"drop1", p});
  }
  {
    hw::FaultPlan p;
    p.drop_rate = 0.02;
    p.dup_rate = 0.02;
    cases.push_back({"drop+dup", p});
  }
  {
    hw::FaultPlan p;
    p.corrupt_rate = 0.02;
    p.delay_rate = 0.05;
    p.delay_max_us = 40.0;
    cases.push_back({"corrupt+delay", p});
  }
  {
    hw::FaultPlan p;
    p.drop_rate = 0.05;
    p.dup_rate = 0.01;
    p.corrupt_rate = 0.01;
    p.delay_rate = 0.02;
    cases.push_back({"mixed5", p});
  }

  for (const ChaosCase& c : cases) {
    harness::ExperimentConfig copy;
    copy.model = harness::ModelKind::kRaid;
    copy.raid.total_requests = 600;
    copy.nodes = 4;
    copy.gvt_mode = warped::GvtMode::kNic;
    copy.paranoia_checks = true;
    copy.fault = c.plan;
    copy.fault.seed = GetParam();

    harness::ExperimentConfig incr = copy;
    incr.state_save_period = 0;  // adaptive fallback-snapshot interval
    incr.state_mode = warped::StateSaveMode::kIncremental;

    SCOPED_TRACE(::testing::Message() << c.name << " / seed " << GetParam());
    const harness::ExperimentResult a = harness::run_experiment(copy);
    const harness::ExperimentResult b = harness::run_experiment(incr);
    ASSERT_TRUE(a.completed);
    ASSERT_TRUE(b.completed);
    EXPECT_EQ(b.signature, a.signature);
    EXPECT_EQ(b.committed_events, a.committed_events);
    EXPECT_GT(b.undo_bytes_logged, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(FaultSeeds, ChaosIncrementalTwin, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace nicwarp

// Unit tests for src/core: RNG streams, ring buffer, config, stats, types.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "core/config.hpp"
#include "core/ring_buffer.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/types.hpp"

namespace nicwarp {
namespace {

// ---------------------------------------------------------------------------
// SimTime / VirtualTime
// ---------------------------------------------------------------------------

TEST(SimTimeTest, ArithmeticAndConversions) {
  SimTime a = SimTime::from_us(2.5);
  EXPECT_EQ(a.ns, 2500);
  EXPECT_DOUBLE_EQ(a.micros(), 2.5);
  EXPECT_DOUBLE_EQ(SimTime::from_seconds(1.5).seconds(), 1.5);
  EXPECT_EQ((a + SimTime::from_ns(500)).ns, 3000);
  EXPECT_EQ((a - SimTime::from_ns(500)).ns, 2000);
  SimTime b = a;
  b += SimTime::from_ns(1);
  EXPECT_LT(a, b);
}

TEST(SimTimeTest, OrderingIsTotal) {
  EXPECT_LT(SimTime::zero(), SimTime::max());
  EXPECT_EQ(SimTime::from_us(1), SimTime::from_ns(1000));
}

TEST(VirtualTimeTest, InfinitySemantics) {
  EXPECT_TRUE(VirtualTime::inf().is_inf());
  EXPECT_FALSE(VirtualTime::zero().is_inf());
  EXPECT_LT(VirtualTime{1000000}, VirtualTime::inf());
  EXPECT_EQ(VirtualTime::min(VirtualTime{3}, VirtualTime::inf()), VirtualTime{3});
  EXPECT_EQ(VirtualTime::max(VirtualTime{3}, VirtualTime::inf()), VirtualTime::inf());
  EXPECT_EQ((VirtualTime{5} + 7).t, 12);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, NamedStreamsAreIndependent) {
  Rng a(42, "alpha"), b(42, "beta"), a2(42, "alpha");
  EXPECT_NE(a.next_u64(), b.next_u64());
  Rng a3(42, "alpha");
  EXPECT_EQ(a3.next_u64(), a2.next_u64());
}

TEST(RngTest, NextBelowIsInRangeAndCoversRange) {
  Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = r.next_below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all residues hit
}

TEST(RngTest, UniformInclusiveBounds) {
  Rng r(8);
  bool lo_hit = false, hi_hit = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = r.uniform(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    lo_hit |= v == -3;
    hi_hit |= v == 3;
  }
  EXPECT_TRUE(lo_hit);
  EXPECT_TRUE(hi_hit);
  EXPECT_EQ(r.uniform(5, 5), 5);  // degenerate range
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng r(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = r.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng r(10);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += r.exponential(25.0);
  EXPECT_NEAR(sum / 20000.0, 25.0, 1.0);
}

TEST(RngTest, ChanceProbability) {
  Rng r(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.chance(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, StableHashIsStable) {
  EXPECT_EQ(stable_hash("hello"), stable_hash("hello"));
  EXPECT_NE(stable_hash("hello"), stable_hash("hellp"));
  EXPECT_NE(stable_hash(""), stable_hash("a"));
}

// ---------------------------------------------------------------------------
// RingBuffer
// ---------------------------------------------------------------------------

TEST(RingBufferTest, FifoOrder) {
  RingBuffer<int> rb(4);
  EXPECT_TRUE(rb.empty());
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(rb.try_push(i));
  EXPECT_TRUE(rb.full());
  EXPECT_FALSE(rb.try_push(99));  // overflow refused, contents intact
  for (int i = 0; i < 4; ++i) EXPECT_EQ(rb.pop(), i);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBufferTest, WrapAround) {
  RingBuffer<int> rb(3);
  rb.try_push(1);
  rb.try_push(2);
  EXPECT_EQ(rb.pop(), 1);
  rb.try_push(3);
  rb.try_push(4);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.at(0), 2);
  EXPECT_EQ(rb.at(2), 4);
  EXPECT_EQ(rb.pop(), 2);
  EXPECT_EQ(rb.pop(), 3);
  EXPECT_EQ(rb.pop(), 4);
}

TEST(RingBufferTest, RemoveAtPreservesOrder) {
  RingBuffer<int> rb(5);
  for (int i = 0; i < 5; ++i) rb.try_push(i * 10);
  EXPECT_EQ(rb.remove_at(2), 20);
  EXPECT_EQ(rb.size(), 4u);
  EXPECT_EQ(rb.at(0), 0);
  EXPECT_EQ(rb.at(1), 10);
  EXPECT_EQ(rb.at(2), 30);
  EXPECT_EQ(rb.at(3), 40);
  EXPECT_EQ(rb.remove_at(0), 0);
  EXPECT_EQ(rb.remove_at(2), 40);
  EXPECT_EQ(rb.size(), 2u);
}

TEST(RingBufferTest, RemoveAtAfterWrap) {
  RingBuffer<int> rb(3);
  rb.try_push(1);
  rb.try_push(2);
  rb.try_push(3);
  rb.pop();          // head moved
  rb.try_push(4);    // wraps
  EXPECT_EQ(rb.remove_at(1), 3);
  EXPECT_EQ(rb.at(0), 2);
  EXPECT_EQ(rb.at(1), 4);
}

TEST(RingBufferTest, ClearResets) {
  RingBuffer<int> rb(2);
  rb.try_push(1);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  EXPECT_TRUE(rb.try_push(2));
  EXPECT_EQ(rb.front(), 2);
}

// ---------------------------------------------------------------------------
// ParamSet
// ---------------------------------------------------------------------------

TEST(ParamSetTest, ParseAndTypedGetters) {
  ParamSet p = ParamSet::parse("a=1 b=2.5 c=hello  d=true   e=off");
  EXPECT_EQ(p.get_i64("a", -1), 1);
  EXPECT_DOUBLE_EQ(p.get_f64("b", 0.0), 2.5);
  EXPECT_EQ(p.get_str("c", ""), "hello");
  EXPECT_TRUE(p.get_bool("d", false));
  EXPECT_FALSE(p.get_bool("e", true));
  EXPECT_EQ(p.get_i64("missing", 77), 77);
  EXPECT_FALSE(p.contains("missing"));
  EXPECT_TRUE(p.contains("a"));
}

TEST(ParamSetTest, ParseIgnoresBadTokens) {
  ParamSet p = ParamSet::parse("noequals a=1 =bad");
  EXPECT_EQ(p.size(), 1u);
  EXPECT_EQ(p.get_i64("a", 0), 1);
}

TEST(ParamSetTest, CanonicalToString) {
  ParamSet p = ParamSet::parse("z=1 a=2");
  EXPECT_EQ(p.to_string(), "a=2 z=1");  // sorted
}

TEST(ParamSetTest, MergeOverrides) {
  ParamSet base = ParamSet::parse("a=1 b=2");
  ParamSet over = ParamSet::parse("b=3 c=4");
  ParamSet m = base.merged_with(over);
  EXPECT_EQ(m.get_i64("a", 0), 1);
  EXPECT_EQ(m.get_i64("b", 0), 3);
  EXPECT_EQ(m.get_i64("c", 0), 4);
}

TEST(ParamSetTest, SettersRoundTrip) {
  ParamSet p;
  p.set_i64("n", -42);
  p.set_f64("x", 1.25);
  EXPECT_EQ(p.get_i64("n", 0), -42);
  EXPECT_DOUBLE_EQ(p.get_f64("x", 0.0), 1.25);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(StatsTest, CountersAccumulate) {
  StatsRegistry s;
  s.counter("x").add(3);
  s.counter("x").add(4);
  s.counter("y").sub(1);
  EXPECT_EQ(s.value("x"), 7);
  EXPECT_EQ(s.value("y"), -1);
  EXPECT_EQ(s.value("never"), 0);
}

TEST(StatsTest, AllCountersSortedByName) {
  StatsRegistry s;
  s.counter("b").add(1);
  s.counter("a").add(2);
  auto all = s.all_counters();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, "a");
  EXPECT_EQ(all[1].first, "b");
}

TEST(StatsTest, HistogramMeanMaxQuantile) {
  Histogram h({1, 10, 100, 1000});
  for (int i = 0; i < 90; ++i) h.record(5.0);
  for (int i = 0; i < 10; ++i) h.record(500.0);
  EXPECT_EQ(h.count(), 100);
  EXPECT_NEAR(h.mean(), (90 * 5.0 + 10 * 500.0) / 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  EXPECT_LE(h.quantile(0.5), 10.0);   // median bucket
  EXPECT_GE(h.quantile(0.95), 100.0);  // tail bucket
}

TEST(StatsTest, ResetClearsEverything) {
  StatsRegistry s;
  s.counter("x").add(1);
  s.histogram("h").record(1.0);
  s.reset();
  EXPECT_EQ(s.value("x"), 0);
  EXPECT_EQ(s.histogram("h").count(), 0);
}

TEST(StatsTest, ResetPreservesHandedOutReferences) {
  StatsRegistry s;
  Counter& c = s.counter("x");
  Histogram& h = s.histogram("h");
  c.add(5);
  h.record(2.0);
  s.reset();
  // The same objects must still be live and registered (in-place reset).
  c.add(3);
  h.record(7.0);
  EXPECT_EQ(s.value("x"), 3);
  EXPECT_EQ(s.histogram("h").count(), 1);
  EXPECT_DOUBLE_EQ(s.histogram("h").max(), 7.0);
}

TEST(StatsTest, QuantileEmptyHistogramIsZero) {
  Histogram h({1, 10, 100});
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(StatsTest, QuantileSingleSample) {
  Histogram h({10, 100});
  h.record(5.0);
  // Every quantile of a one-sample histogram is that exact sample: the
  // tracked min/max clamp the bucket's interpolation range to a point.
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
}

TEST(StatsTest, QuantileExtremesAndOverflowBucket) {
  Histogram h({10, 100});
  for (int i = 0; i < 90; ++i) h.record(5.0);
  for (int i = 0; i < 10; ++i) h.record(1e6);  // beyond the last bound
  // q=0 / q=1 report the exact tracked extremes, not bucket bounds.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1e6);
  // The median interpolates inside [min, first bound]: rank 49.5 of the 90
  // samples in the first bucket -> 5 + (10 - 5) * 49.5 / 90.
  EXPECT_NEAR(h.quantile(0.5), 7.75, 1e-9);
  // Rank 94.05 lands in the overflow bucket, which interpolates between the
  // last bound (100) and the exact max (there is no upper bound to quote).
  const double q95 = h.quantile(0.95);
  EXPECT_GE(q95, 100.0);
  EXPECT_LE(q95, 1e6);
  EXPECT_NEAR(q95, 100.0 + (1e6 - 100.0) * ((94.05 - 90.0) / 10.0), 1e-6);
}

TEST(StatsTest, NameReuseReturnsSameInstance) {
  StatsRegistry s;
  Counter& a = s.counter("same");
  Counter& b = s.counter("same");
  EXPECT_EQ(&a, &b);
  a.add(2);
  b.add(3);
  EXPECT_EQ(s.value("same"), 5);
  // A histogram may share a counter's name; they live in separate maps.
  Histogram& ha = s.histogram("same");
  Histogram& hb = s.histogram("same");
  EXPECT_EQ(&ha, &hb);
  ha.record(1.0);
  EXPECT_EQ(s.histogram("same").count(), 1);
  EXPECT_EQ(s.value("same"), 5);  // counter untouched
  ASSERT_EQ(s.all_histograms().size(), 1u);
  EXPECT_EQ(s.all_histograms()[0].first, "same");
}

TEST(StatsTest, UnaddedHandleLeavesItsNameOut) {
  StatsRegistry s;
  s.counter("other").add(1);
  CounterHandle h(s, "x");
  CounterHandle two_part(s, "host0.cpu", ".jobs");
  ASSERT_EQ(s.all_counters().size(), 1u);
  EXPECT_EQ(s.to_string(), "other=1\n");
  StatsRegistry merged;
  merged.merge_from(s);
  ASSERT_EQ(merged.all_counters().size(), 1u);
  EXPECT_EQ(merged.all_counters()[0].first, "other");
}

TEST(StatsTest, HandleRegistersOnFirstAdd) {
  StatsRegistry s;
  CounterHandle h(s, "x");
  CounterHandle jobs(s, "host0.cpu", ".jobs");
  EXPECT_TRUE(s.all_counters().empty());
  h.add(0);  // a zero add registers the name, as counter("x").add(0) does
  ASSERT_EQ(s.all_counters().size(), 1u);
  EXPECT_EQ(s.all_counters()[0].first, "x");
  h.add(4);
  jobs.add();
  ASSERT_EQ(s.all_counters().size(), 2u);
  jobs.add(2);
  EXPECT_EQ(s.value("x"), 4);
  EXPECT_EQ(s.value("host0.cpu.jobs"), 3);
  EXPECT_EQ(&jobs.counter(), &s.counter("host0.cpu.jobs"));
}

TEST(StatsTest, HandleSurvivesResetAndLaterInserts) {
  StatsRegistry s;
  CounterHandle h(s, "m");
  h.add(5);
  s.reset();
  // Names that sort before and after the handle's insert new map nodes.
  for (int i = 0; i < 100; ++i) {
    s.counter("a" + std::to_string(i)).add(1);
    s.counter("z" + std::to_string(i)).add(1);
  }
  h.add(2);
  EXPECT_EQ(s.value("m"), 2);
  s.reset();
  h.add(1);
  EXPECT_EQ(s.value("m"), 1);
}

TEST(StatsTest, HandleShardMergeMatchesStringKeyedCounters) {
  // Two per-shard registries recorded through handles, and two recorded by
  // name with the same adds, merge to the same totals and the same names.
  StatsRegistry by_handle[2];
  StatsRegistry by_name[2];
  for (int shard = 0; shard < 2; ++shard) {
    CounterHandle packets(by_handle[shard], "net.packets");
    CounterHandle busy(by_handle[shard], "link3", ".busy_ns");
    CounterHandle idle(by_handle[shard], "never.added");
    for (int i = 0; i <= shard * 3; ++i) {
      packets.add(i);
      busy.add(10 * i + shard);
      by_name[shard].counter("net.packets").add(i);
      by_name[shard].counter("link3.busy_ns").add(10 * i + shard);
    }
    if (shard == 1) {
      CounterHandle only_here(by_handle[shard], "nic.retransmits");
      only_here.add(7);
      by_name[shard].counter("nic.retransmits").add(7);
    }
  }
  StatsRegistry merged_handle;
  StatsRegistry merged_name;
  for (int shard = 0; shard < 2; ++shard) {
    merged_handle.merge_from(by_handle[shard]);
    merged_name.merge_from(by_name[shard]);
  }
  EXPECT_EQ(merged_handle.all_counters(), merged_name.all_counters());
  EXPECT_EQ(merged_handle.to_string(), merged_name.to_string());
  EXPECT_EQ(merged_handle.value("net.packets"), 6);
  EXPECT_EQ(merged_handle.value("link3.busy_ns"), 64);
}

}  // namespace
}  // namespace nicwarp

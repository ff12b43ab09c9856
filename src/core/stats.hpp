// Experiment statistics: named counters and small histograms.
//
// All layers (hardware, firmware, comm, Time-Warp kernel) record into one
// StatsRegistry owned by the experiment, so a result row can report e.g.
// "messages dropped by NIC" next to "total rollbacks" without plumbing.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace nicwarp {

class Counter {
 public:
  void add(std::int64_t v = 1) { value_ += v; }
  void sub(std::int64_t v = 1) { value_ -= v; }
  std::int64_t get() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::int64_t value_{0};
};

// Fixed-bucket histogram over non-negative samples; tracks min/mean/max
// exactly.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bucket_bounds = default_bounds());

  void record(double sample);

  std::int64_t count() const { return count_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return max_; }
  double sum() const { return sum_; }

  // Approximate quantile: the fractional rank q*(count-1) is located in its
  // bucket and linearly interpolated between the bucket edges, clamped to
  // the exact [min, max] observed. q=0 returns min, q=1 returns max.
  double quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<std::int64_t>& buckets() const { return buckets_; }

  // Zeroes all samples; bucket bounds are kept.
  void reset();

  // Folds another histogram's samples in bucket-wise. Both histograms must
  // have identical bounds (per-shard stats merge, docs/SHARDING.md); the
  // merged count/sum/min/max are exactly what recording the union of both
  // sample sets would have produced.
  void merge(const Histogram& other);

  static std::vector<double> default_bounds();

 private:
  std::vector<double> bounds_;
  std::vector<std::int64_t> buckets_;  // bounds_.size() + 1 (overflow bucket)
  std::int64_t count_{0};
  double sum_{0.0};
  double min_{0.0};
  double max_{0.0};
};

class StatsRegistry {
 public:
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Value of a counter, 0 if never touched.
  std::int64_t value(std::string_view name) const;

  // Deterministic iteration/export order: both accessors return entries
  // sorted by name (the registry is map-backed), so exports and samples are
  // byte-stable across runs.
  std::vector<std::pair<std::string, std::int64_t>> all_counters() const;
  std::vector<std::pair<std::string, const Histogram*>> all_histograms() const;

  std::string to_string() const;

  // Zeroes every counter and histogram *in place* — registered names (and
  // any Counter&/Histogram& or resolved CounterHandle a call site holds)
  // stay valid, which is what per-round sampling and re-used testbeds need.
  void reset();

  // Folds another registry in: counters are summed by name, histograms are
  // bucket-merged by name. Used to build the cluster-wide view from
  // per-shard registries; merging shards in ascending shard order is
  // deterministic because the map is name-sorted regardless.
  void merge_from(const StatsRegistry& other);

 private:
  // Map nodes never move, so a Counter& stays valid across later inserts.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

// How per-event code records a counter. A handle is bound to a registry and
// a name once, looks its Counter up on the first add() and adds to it
// directly after that: no map lookup and no key string per event. It never
// looks up earlier, so a name enters the registry exactly when
// counter(name).add(v) at the same site would have put it there, and a handle
// that is never added leaves its name out of every export and merge. The
// resolved Counter stays valid across reset() and later inserts.
class CounterHandle {
 public:
  CounterHandle() = default;
  // The counter's name is `name` followed by `suffix`. Neither C string is
  // copied, so both must outlive the handle: string literals, or a string
  // its owner keeps. Binding allocates nothing. A testbed holds hundreds of
  // handles and its set-up time grows with the memory it touches, hence two
  // pointers here rather than two string_views.
  CounterHandle(StatsRegistry& stats, const char* name, const char* suffix = "")
      : stats_(&stats), name_(name), suffix_(suffix) {}

  void add(std::int64_t v = 1) { counter().add(v); }

  // The counter itself; registers the name on the first call.
  Counter& counter() {
    if (counter_ == nullptr) [[unlikely]] resolve();
    return *counter_;
  }

 private:
  void resolve();

  Counter* counter_{nullptr};
  StatsRegistry* stats_{nullptr};
  const char* name_{nullptr};
  const char* suffix_{nullptr};
};

}  // namespace nicwarp

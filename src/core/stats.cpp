#include "core/stats.hpp"

#include <algorithm>
#include <sstream>

#include "core/assert.hpp"

namespace nicwarp {

std::vector<double> Histogram::default_bounds() {
  // Log-spaced 1..1e9 (covers ns..s when samples are in ns, or counts).
  std::vector<double> b;
  for (double x = 1.0; x <= 1e9; x *= 10.0) {
    b.push_back(x);
    b.push_back(x * 3.0);
  }
  return b;
}

Histogram::Histogram(std::vector<double> bucket_bounds)
    : bounds_(std::move(bucket_bounds)), buckets_(bounds_.size() + 1, 0) {
  NW_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::record(double sample) {
  auto it = std::upper_bound(bounds_.begin(), bounds_.end(), sample);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())]++;
  min_ = count_ ? std::min(min_, sample) : sample;
  ++count_;
  sum_ += sample;
  max_ = std::max(max_, sample);
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  NW_CHECK(q >= 0.0 && q <= 1.0);
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  // Fractional rank over count samples (0-based): rank t sits between the
  // floor(t)-th and floor(t)+1-th order statistics.
  const double t = q * static_cast<double>(count_ - 1);
  std::int64_t before = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::int64_t n = buckets_[i];
    if (n == 0) continue;
    if (static_cast<double>(before + n) > t) {
      // Bucket edges, clamped to the exactly-tracked sample range so an
      // interpolated value never leaves [min, max].
      double lo = i == 0 ? min_ : std::max(bounds_[i - 1], min_);
      double hi = i < bounds_.size() ? std::min(bounds_[i], max_) : max_;
      if (hi < lo) hi = lo;
      const double frac = (t - static_cast<double>(before)) / static_cast<double>(n);
      return lo + (hi - lo) * frac;
    }
    before += n;
  }
  return max_;
}

void Histogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

void Histogram::merge(const Histogram& other) {
  NW_CHECK_MSG(bounds_ == other.bounds_, "histogram merge: bucket bounds differ");
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  min_ = count_ ? std::min(min_, other.min_) : other.min_;
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

Counter& StatsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) it = counters_.emplace(std::string(name), Counter{}).first;
  return it->second;
}

Histogram& StatsRegistry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) it = histograms_.emplace(std::string(name), Histogram{}).first;
  return it->second;
}

std::int64_t StatsRegistry::value(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.get();
}

std::vector<std::pair<std::string, std::int64_t>> StatsRegistry::all_counters() const {
  std::vector<std::pair<std::string, std::int64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [k, c] : counters_) out.emplace_back(k, c.get());
  return out;
}

std::vector<std::pair<std::string, const Histogram*>> StatsRegistry::all_histograms() const {
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [k, h] : histograms_) out.emplace_back(k, &h);
  return out;
}

std::string StatsRegistry::to_string() const {
  std::ostringstream os;
  for (const auto& [k, c] : counters_) os << k << "=" << c.get() << "\n";
  for (const auto& [k, h] : histograms_) {
    os << k << ": n=" << h.count() << " mean=" << h.mean() << " max=" << h.max() << "\n";
  }
  return os.str();
}

void StatsRegistry::reset() {
  // In place, not clear(): references handed out by counter()/histogram()
  // must survive a reset (samplers reset between rounds while hot paths
  // keep recording).
  for (auto& [k, c] : counters_) c.reset();
  for (auto& [k, h] : histograms_) h.reset();
}

void StatsRegistry::merge_from(const StatsRegistry& other) {
  for (const auto& [k, c] : other.counters_) counter(k).add(c.get());
  for (const auto& [k, h] : other.histograms_) histogram(k).merge(h);
}

void CounterHandle::resolve() {
  NW_CHECK_MSG(stats_ != nullptr, "CounterHandle added before it was bound to a registry");
  counter_ = *suffix_ == '\0' ? &stats_->counter(name_)
                              : &stats_->counter(std::string(name_).append(suffix_));
}

}  // namespace nicwarp

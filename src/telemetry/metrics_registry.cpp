#include "synergy/telemetry/metrics_registry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "synergy/common/table.hpp"

namespace synergy::telemetry {

namespace {
std::atomic<bool> g_enabled{true};
}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

std::size_t counter::stripe_index() noexcept {
  // One stripe per thread, assigned round-robin on first use; threads beyond
  // n_stripes share, which only costs contention, never correctness.
  static std::atomic<std::size_t> next{0};
  static thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % n_stripes;
  return idx;
}

histogram::histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  if (bounds_.empty())
    for (double b = 1e-6; b <= 1e3; b *= 10.0) bounds_.push_back(b);
  std::sort(bounds_.begin(), bounds_.end());
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

void histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
  double lo = min_.load(std::memory_order_relaxed);
  while (v < lo && !min_.compare_exchange_weak(lo, v, std::memory_order_relaxed)) {
  }
  double hi = max_.load(std::memory_order_relaxed);
  while (v > hi && !max_.compare_exchange_weak(hi, v, std::memory_order_relaxed)) {
  }
}

double histogram::min() const noexcept {
  const double v = min_.load(std::memory_order_relaxed);
  return std::isinf(v) ? 0.0 : v;
}

double histogram::max() const noexcept {
  const double v = max_.load(std::memory_order_relaxed);
  return std::isinf(v) ? 0.0 : v;
}

double histogram::mean() const noexcept {
  const auto n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<std::uint64_t>& buckets, double min_observed,
                          double max_observed, double p) noexcept {
  if (buckets.size() != bounds.size() + 1) return 0.0;
  std::uint64_t total = 0;
  for (const auto b : buckets) total += b;
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double rank = p * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (cum + in_bucket < rank || in_bucket == 0.0) {
      cum += in_bucket;
      continue;
    }
    if (i == bounds.size()) return max_observed;  // +inf bucket: no upper edge
    const double hi = bounds[i];
    const double lo = i == 0 ? std::min(min_observed, bounds[0]) : bounds[i - 1];
    const double frac = (rank - cum) / in_bucket;
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return max_observed;
}

double histogram::quantile(double p) const noexcept {
  std::vector<std::uint64_t> buckets;
  buckets.reserve(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets.push_back(bucket_count(i));
  return histogram_quantile(bounds_, buckets, min(), max(), p);
}

bool histogram::restore(std::uint64_t count, double sum, double min_v, double max_v,
                        const std::vector<std::uint64_t>& buckets) noexcept {
  if (buckets.size() != bounds_.size() + 1) return false;
  reset();
  if (count == 0) return true;
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    counts_[i].store(buckets[i], std::memory_order_relaxed);
  count_.store(count, std::memory_order_relaxed);
  sum_.store(sum, std::memory_order_relaxed);
  min_.store(min_v, std::memory_order_relaxed);
  max_.store(max_v, std::memory_order_relaxed);
  return true;
}

void histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    counts_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
}

metrics_registry& metrics_registry::instance() {
  static metrics_registry global;
  return global;
}

counter& metrics_registry::get_counter(std::string_view name) {
  std::scoped_lock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string{name}, std::make_unique<counter>()).first;
  return *it->second;
}

gauge& metrics_registry::get_gauge(std::string_view name) {
  std::scoped_lock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string{name}, std::make_unique<gauge>()).first;
  return *it->second;
}

histogram& metrics_registry::get_histogram(std::string_view name, std::vector<double> bounds) {
  std::scoped_lock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string{name}, std::make_unique<histogram>(std::move(bounds)))
             .first;
  return *it->second;
}

std::vector<metric_snapshot> metrics_registry::snapshot() const {
  std::scoped_lock lock(mutex_);
  std::vector<metric_snapshot> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    metric_snapshot s;
    s.name = name;
    s.type = metric_snapshot::kind::counter;
    s.value = static_cast<double>(c->value());
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    metric_snapshot s;
    s.name = name;
    s.type = metric_snapshot::kind::gauge;
    s.value = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    metric_snapshot s;
    s.name = name;
    s.type = metric_snapshot::kind::histogram;
    s.count = h->count();
    s.sum = h->sum();
    s.min = h->min();
    s.max = h->max();
    s.mean = h->mean();
    s.bounds = h->bounds();
    s.buckets.reserve(s.bounds.size() + 1);
    for (std::size_t i = 0; i <= s.bounds.size(); ++i) s.buckets.push_back(h->bucket_count(i));
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return out;
}

void metrics_registry::reset_values() {
  std::scoped_lock lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

bool metrics_registry::accepts(const std::vector<metric_snapshot>& snaps) const {
  std::scoped_lock lock(mutex_);
  // Bound counts of the histograms the snapshot itself registers first.
  std::map<std::string_view, std::size_t> registered;
  for (const auto& s : snaps) {
    if (s.type != metric_snapshot::kind::histogram) continue;
    const auto it = histograms_.find(s.name);
    const std::size_t n_bounds = it != histograms_.end()
                                     ? it->second->bounds().size()
                                     : registered.try_emplace(s.name, s.bounds.size()).first->second;
    if (s.buckets.size() != n_bounds + 1) return false;
  }
  return true;
}

bool metrics_registry::restore(const std::vector<metric_snapshot>& snaps) {
  if (!accepts(snaps)) return false;
  reset_values();
  for (const auto& s : snaps) {
    switch (s.type) {
      case metric_snapshot::kind::counter:
        get_counter(s.name).restore(static_cast<std::uint64_t>(s.value));
        break;
      case metric_snapshot::kind::gauge:
        get_gauge(s.name).set(s.value);
        break;
      case metric_snapshot::kind::histogram:
        get_histogram(s.name, s.bounds).restore(s.count, s.sum, s.min, s.max, s.buckets);
        break;
    }
  }
  return true;
}

void metrics_registry::summary_table(std::ostream& os) const {
  common::text_table table;
  table.header({"metric", "kind", "value", "count", "mean", "min", "max"});
  for (const auto& s : snapshot()) {
    switch (s.type) {
      case metric_snapshot::kind::counter:
        table.row({s.name, "counter", common::text_table::fmt(s.value, 0), "-", "-", "-", "-"});
        break;
      case metric_snapshot::kind::gauge:
        table.row({s.name, "gauge", common::text_table::fmt(s.value, 4), "-", "-", "-", "-"});
        break;
      case metric_snapshot::kind::histogram:
        table.row({s.name, "histogram", common::text_table::fmt(s.sum, 4),
                   std::to_string(s.count), common::text_table::fmt(s.mean, 6),
                   common::text_table::fmt(s.min, 6), common::text_table::fmt(s.max, 6)});
        break;
    }
  }
  table.print(os);
}

}  // namespace synergy::telemetry

#pragma once

/// \file metrics_registry.hpp
/// Process-wide registry of named counters, gauges, and fixed-bucket
/// histograms.
///
/// Hot-path cost model: instrumentation sites cache a reference to their
/// instrument (the SYNERGY_COUNTER_ADD macro does this with a static local),
/// so the per-event cost is one relaxed atomic op. Counters stripe their
/// atomics across cache lines so concurrent submission threads do not
/// contend on one word; gauges and histograms use single atomics (their
/// sites are not per-kernel-hot). Registration is mutex-guarded and returns
/// stable references: instruments are never removed, only reset.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace synergy::telemetry {

/// Process-wide runtime kill switch (independent of the compile-time gate):
/// every macro site checks this with one relaxed load before doing work.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Monotonically increasing event count, striped to avoid false sharing
/// between submission threads.
class counter {
 public:
  static constexpr std::size_t n_stripes = 16;

  void add(std::uint64_t delta = 1) noexcept {
    stripes_[stripe_index()].v.fetch_add(delta, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : stripes_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void reset() noexcept {
    for (auto& s : stripes_) s.v.store(0, std::memory_order_relaxed);
  }

  /// Overwrite the total with `v` (checkpoint restore): stripe 0 carries the
  /// whole value, the rest are zeroed. value() is a stripe sum, so the
  /// observable total is exact.
  void restore(std::uint64_t v) noexcept {
    reset();
    stripes_[0].v.store(v, std::memory_order_relaxed);
  }

 private:
  static std::size_t stripe_index() noexcept;
  struct alignas(64) stripe {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<stripe, n_stripes> stripes_{};
};

/// Last-writer-wins scalar (also supports accumulate for running totals
/// such as joules attributed to a queue).
class gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }

  void add(double delta) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: bucket upper bounds are set at registration and
/// never change, so observation is a linear scan over a handful of doubles
/// plus one atomic increment (bucket counts), one CAS (sum), and two
/// bounded CAS loops (min/max).
class histogram {
 public:
  /// `bounds` are inclusive upper bounds; an implicit +inf bucket is added.
  /// An empty list gets a decade-spaced default covering 1e-6 .. 1e3.
  explicit histogram(std::vector<double> bounds);

  void observe(double v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  [[nodiscard]] double mean() const noexcept;
  /// Estimated p-quantile (p in [0,1]) by linear interpolation within the
  /// bucket holding the target rank — see histogram_quantile() for the edge
  /// conventions. 0 on an empty histogram.
  [[nodiscard]] double quantile(double p) const noexcept;
  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Count in bucket i (i == bounds().size() is the +inf overflow bucket).
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return counts_[i].load(std::memory_order_relaxed);
  }

  void reset() noexcept;

  /// Overwrite every accumulator (checkpoint restore). `buckets` must have
  /// bounds().size() + 1 entries; returns false (histogram untouched)
  /// otherwise. A count of 0 restores the pristine state regardless of the
  /// min/max passed (snapshots render empty min/max as 0).
  bool restore(std::uint64_t count, double sum, double min_v, double max_v,
               const std::vector<std::uint64_t>& buckets) noexcept;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Quantile estimate over fixed buckets: find the bucket holding rank
/// p * count, then interpolate linearly inside it. Edge conventions:
///  - empty histogram (count 0): 0;
///  - first bucket's lower edge is min(min_observed, bounds[0]) so a
///    single-bucket histogram interpolates over the observed range;
///  - ranks landing in the +inf overflow bucket return max_observed (there
///    is no upper edge to interpolate toward).
/// `buckets` must have bounds.size() + 1 entries (the snapshot layout).
[[nodiscard]] double histogram_quantile(const std::vector<double>& bounds,
                                        const std::vector<std::uint64_t>& buckets,
                                        double min_observed, double max_observed,
                                        double p) noexcept;

/// Point-in-time view of one instrument, for reporting/export.
struct metric_snapshot {
  enum class kind { counter, gauge, histogram };
  std::string name;
  kind type{kind::counter};
  double value{0.0};          ///< counter total or gauge value
  std::uint64_t count{0};     ///< histogram observations
  double sum{0.0}, min{0.0}, max{0.0}, mean{0.0};
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 entries
};

class metrics_registry {
 public:
  /// Process-global registry used by the SYNERGY_* macros.
  static metrics_registry& instance();

  metrics_registry() = default;
  metrics_registry(const metrics_registry&) = delete;
  metrics_registry& operator=(const metrics_registry&) = delete;

  /// Get-or-create; returned references stay valid for the registry's
  /// lifetime (instruments are never erased).
  counter& get_counter(std::string_view name);
  gauge& get_gauge(std::string_view name);
  /// `bounds` applies on first registration only; later callers share the
  /// existing instrument regardless of the bounds they pass.
  histogram& get_histogram(std::string_view name, std::vector<double> bounds = {});

  /// All instruments, sorted by name.
  [[nodiscard]] std::vector<metric_snapshot> snapshot() const;

  /// Zero every instrument's value (handles stay valid) — test isolation.
  void reset_values();

  /// True when restore(snaps) succeeds: every histogram entry has one
  /// bucket more than the bounds of the instrument registered under its
  /// name (its own bounds, for a name not yet registered).
  [[nodiscard]] bool accepts(const std::vector<metric_snapshot>& snaps) const;
  /// Restore instrument values from a snapshot() taken earlier (checkpoint
  /// resume): every existing instrument is reset, snapshot instruments are
  /// get-or-created (histograms with the snapshot's bounds) and overwritten.
  /// Returns false, and changes nothing, unless accepts(snaps).
  bool restore(const std::vector<metric_snapshot>& snaps);

  /// Render a "metric | value | ..." summary table of the current snapshot.
  void summary_table(std::ostream& os) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<histogram>, std::less<>> histograms_;
};

}  // namespace synergy::telemetry

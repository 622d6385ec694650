#pragma once

/// \file drift_monitor.hpp
/// Rolling prediction-error tracking and model quarantine.
///
/// The deployment story (paper Sec. 3.2) trains once per device product and
/// ships the model directory cluster-wide — which means a board whose power
/// behaviour drifts (aging, firmware updates, thermal derating) silently
/// invalidates the models it runs under. The drift monitor closes that loop:
/// every measured (kernel, clocks) sample is compared against the model's
/// prediction, a per-device rolling relative-error statistic is maintained,
/// and when it crosses the threshold the model set is quarantined — the
/// guarded planner drops to the tuning-table/default tier and telemetry
/// surfaces a retrain recommendation.
///
/// The comparison is scale-free: models predict *normalised per-item*
/// metrics while measurements are absolute joules, so the first sample of
/// each kernel calibrates a per-kernel scale and subsequent samples measure
/// how far the measured/predicted ratio moved from that baseline. A good
/// model on a stable device keeps the ratio constant across clocks (the
/// model captures the frequency response); a drifted device moves it.
///
/// Quarantine latches: once fired it stays until reset(), so two seeded
/// runs of the same workload quarantine at the same sample and every plan
/// after the trip point resolves through the same tier — byte-identical
/// degradation.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace synergy {

struct drift_options {
  /// Rolling window of relative errors the statistic averages over.
  std::size_t window{32};
  /// Samples required before the monitor is allowed to quarantine.
  std::size_t min_samples{8};
  /// Quarantine when mean |relative error| over the window exceeds this.
  double threshold{0.25};
};

/// Full rolling state of a drift_monitor (checkpoint/resume support).
struct drift_state {
  std::map<std::string, double> scale;
  std::vector<double> window;
  std::size_t next{0};
  double window_sum{0.0};
  std::size_t total{0};
  std::size_t rejected{0};
  bool quarantined{false};
  std::string reason;
};

class drift_monitor {
 public:
  explicit drift_monitor(drift_options options = {});

  /// Feed one (predicted, measured) pair for `kernel`. Non-finite or
  /// non-positive values are rejected (counted, never averaged). The first
  /// pair per kernel calibrates that kernel's scale and contributes zero
  /// error by construction.
  void observe(const std::string& kernel, double predicted, double measured);

  /// Mean |relative error| over the current window (0 while empty).
  [[nodiscard]] double rolling_error() const;

  [[nodiscard]] std::size_t samples() const { return total_; }
  [[nodiscard]] std::size_t rejected_samples() const { return rejected_; }

  [[nodiscard]] bool quarantined() const { return quarantined_; }
  /// Human-readable trip report ("rolling error 0.41 > threshold 0.25 ...").
  [[nodiscard]] const std::string& quarantine_reason() const { return reason_; }

  /// Lift the quarantine and forget all rolling state (e.g. after a
  /// retrain installed fresh models).
  void reset();

  [[nodiscard]] const drift_options& options() const { return opt_; }

  /// Snapshot the exact rolling state for checkpointing. Restoring it into a
  /// monitor with the same options makes subsequent observe() calls behave
  /// bit-identically to the exporting monitor.
  [[nodiscard]] drift_state export_state() const;
  /// True when `s` is consistent with this monitor's options (e.g. its
  /// window is no larger than configured), i.e. import_state(s) succeeds.
  [[nodiscard]] bool accepts(const drift_state& s) const;
  /// Replace the rolling state wholesale. Returns false (and leaves the
  /// monitor untouched) unless accepts(s).
  bool import_state(const drift_state& s);

 private:
  drift_options opt_;
  std::map<std::string, double> scale_;  ///< per-kernel measured/predicted baseline
  std::vector<double> window_;           ///< ring buffer of |relative error|
  std::size_t next_{0};
  double window_sum_{0.0};
  std::size_t total_{0};
  std::size_t rejected_{0};
  bool quarantined_{false};
  std::string reason_;
};

}  // namespace synergy

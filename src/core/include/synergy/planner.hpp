#pragma once

/// \file planner.hpp
/// Frequency planning: from a kernel's static features and an energy target
/// to a concrete (memory, core) clock configuration (paper Fig. 6, steps
/// 5-6).
///
/// Two planners are provided:
///  - frequency_planner: the paper's approach — four trained per-metric
///    models (time, energy, EDP, ED2P) predict each metric at every
///    supported frequency; a search picks the configuration satisfying the
///    requested target. There is one search, and it is batched: every
///    entry point (plan, plan_guarded, plan_guarded_batch) runs it, a
///    single request as a batch of one, over one design matrix per model
///    and one fused ml::regressor::predict_into each.
///  - oracle plans: the same selection over the simulator's exact costs,
///    used as ground truth for the accuracy analysis (Sec. 8.3: "actual
///    optimal frequency") and as the reference tuner in the scaling study.

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "synergy/gpusim/device_spec.hpp"
#include "synergy/gpusim/dvfs_model.hpp"
#include "synergy/gpusim/kernel_profile.hpp"
#include "synergy/metrics/energy_metrics.hpp"
#include "synergy/ml/feature_envelope.hpp"
#include "synergy/ml/regressor.hpp"

namespace synergy {

/// The four single-target models of the training phase (paper Sec. 6.1),
/// plus the feature envelope the training design matrix covered — the
/// in-distribution region inside which predictions are trustworthy. The
/// envelope is optional (legacy model sets lack it); without one, guarded
/// planning skips the out-of-distribution check.
struct trained_models {
  std::unique_ptr<ml::regressor> time;
  std::unique_ptr<ml::regressor> energy;
  std::unique_ptr<ml::regressor> edp;
  std::unique_ptr<ml::regressor> ed2p;
  ml::feature_envelope envelope;

  [[nodiscard]] bool complete() const {
    return time && energy && edp && ed2p && time->fitted() && energy->fitted() &&
           edp->fitted() && ed2p->fitted();
  }
};

/// Model input encoding: the 10 static features plus a small basis over the
/// core clock — f (GHz), 1/f, log f, and f^3 (the memory clock is fixed on
/// every paper device). The frequency basis lets even the linear models
/// express the roofline time shape (a + b/f) and the V^2 f power growth;
/// tree/kernel models simply ignore redundant columns.
inline constexpr std::size_t model_input_dim = 14;
[[nodiscard]] std::array<double, model_input_dim> model_input(const gpusim::static_features& k,
                                                              common::megahertz core_clock);

/// Exact (simulator ground-truth) characterization of a kernel profile over
/// every supported core clock of a device.
[[nodiscard]] metrics::characterization oracle_characterization(
    const gpusim::device_spec& spec, const gpusim::kernel_profile& profile,
    const gpusim::dvfs_model& model = {});

/// Exact optimal frequency for a target (the Sec. 8.3 "actual optimum").
[[nodiscard]] common::frequency_config oracle_plan(const gpusim::device_spec& spec,
                                                   const gpusim::kernel_profile& profile,
                                                   const metrics::target& target,
                                                   const gpusim::dvfs_model& model = {});

/// The clamp rail: snap `config` onto the device's supported clock tables
/// (nearest supported core clock, the device memory clock). Returns whether
/// either clock moved. Shared by the model tier and the tuning-table tier.
bool clamp_to_table(const gpusim::device_spec& spec, common::frequency_config& config);

/// Outcome of a sanity-railed plan (frequency_planner::plan_guarded).
/// `config` is empty when the model tier must not be trusted for this
/// request; `reason` then names the rail that fired. The flags are reported
/// even on success so callers can count near-misses.
struct guarded_plan {
  std::optional<common::frequency_config> config;
  bool ood{false};      ///< feature vector outside the training envelope
  bool clamped{false};  ///< planned clocks were snapped onto the supported table
  std::string reason;   ///< why the plan was rejected (empty when config is set)

  [[nodiscard]] bool usable() const { return config.has_value(); }
};

/// One planning request. The planner reads only `features` and `target`;
/// `kernel` keys the tuning-table tier and the plan cache above it.
struct plan_request {
  std::string kernel;
  gpusim::static_features features;
  metrics::target target;
};

/// Model-driven planner bound to one device spec.
class frequency_planner {
 public:
  frequency_planner(gpusim::device_spec spec, trained_models models);

  /// The frequency configuration satisfying `target` according to the
  /// models, without rails: MIN_EDP/MIN_ED2P take the strict argmin of their
  /// dedicated model (NaN never wins; all-NaN keeps the default clock);
  /// every other target selects on the time/energy predictions, each
  /// floored at zero.
  [[nodiscard]] common::frequency_config plan(const gpusim::static_features& k,
                                              const metrics::target& target) const;

  /// `plan` behind sanity rails: rejects out-of-distribution feature
  /// vectors (training envelope, when the model set ships one) and
  /// non-finite / non-positive metric predictions, and snaps the planned
  /// clocks onto the device's supported tables. Never throws for bad
  /// predictions — a rejected plan is a structured outcome the degradation
  /// chain (guarded_planner) falls through. A batch of one.
  [[nodiscard]] guarded_plan plan_guarded(const gpusim::static_features& k,
                                          const metrics::target& target) const;

  /// Batched plan_guarded: one envelope pass over the whole batch, then the
  /// search (queries grouped by the model their target needs), then a
  /// rejection on the first rail a query's raw predictions break, in clock
  /// order, then the clamp rail. When no rail breaks, the pick equals
  /// plan()'s. Decision `i` depends only on `queries[i]`.
  [[nodiscard]] std::vector<guarded_plan> plan_guarded_batch(
      std::span<const plan_request> queries) const;

  /// Predicted per-item energy at an exact operating point (drift
  /// monitoring compares this against the measured sample). Empty when the
  /// model emits a non-finite or non-positive value.
  [[nodiscard]] std::optional<double> predicted_energy(const gpusim::static_features& k,
                                                       common::megahertz core_clock) const;

  [[nodiscard]] const gpusim::device_spec& spec() const { return spec_; }
  [[nodiscard]] const trained_models& models() const { return models_; }

 private:
  gpusim::device_spec spec_;
  trained_models models_;
};

}  // namespace synergy

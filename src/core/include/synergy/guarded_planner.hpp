#pragma once

/// \file guarded_planner.hpp
/// The deterministic prediction degradation chain:
///
///     guarded model  →  tuning-table entry  →  default clocks
///
/// Every frequency decision the stack makes (queue target resolution,
/// cluster policy plans, the synergy_plan compile step) resolves through
/// this chain. The model tier only answers when the model set is loaded,
/// not quarantined by the drift monitor, the feature vector is inside the
/// training envelope, and every prediction passes the sanity rails
/// (frequency_planner::plan_guarded_batch); otherwise the request falls to
/// the compiled tuning-table artefact, and failing that to the device's
/// driver default clocks. Every fallback is counted in the metrics registry
/// and emitted as a trace instant, so a fleet silently running on degraded
/// tiers is visible, not mysterious. plan_batch is the one resolution path;
/// plan() is a batch of one.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "synergy/drift_monitor.hpp"
#include "synergy/planner.hpp"
#include "synergy/tuning_table.hpp"

namespace synergy {

/// Which tier of the degradation chain produced a plan.
enum class plan_tier { model, tuning_table, default_clocks };

[[nodiscard]] constexpr const char* to_string(plan_tier t) {
  switch (t) {
    case plan_tier::model: return "model";
    case plan_tier::tuning_table: return "tuning_table";
    case plan_tier::default_clocks: return "default_clocks";
  }
  return "?";
}

/// One resolved decision: the clocks to run at, the tier that produced
/// them, and — when the model tier was skipped — why.
struct plan_decision {
  common::frequency_config config;
  plan_tier tier{plan_tier::default_clocks};
  bool ood{false};      ///< model tier rejected the features as out-of-distribution
  bool clamped{false};  ///< clocks were snapped onto the supported table
  bool probe{false};    ///< deliberate default-clock quarantine probe
  std::string reason;   ///< why the chain fell past the model tier (empty on model)
};

/// Full mutable state of a guarded_planner (checkpoint/resume support): the
/// chain generation, every fallback counter, and the drift monitor's rolling
/// state. The tiers themselves (model set, tuning table) are rebuilt from
/// their on-disk artefacts by the resuming process, not serialized.
struct guard_state {
  std::uint64_t generation{0};
  std::size_t model_plans{0};
  std::size_t table_fallbacks{0};
  std::size_t default_fallbacks{0};
  std::size_t ood_rejections{0};
  std::size_t prediction_rejections{0};
  std::size_t quarantine_rejections{0};
  std::size_t quarantine_probes{0};
  drift_state drift;
};

class guarded_planner {
 public:
  /// Either tier may be absent: a missing/corrupt model set degrades the
  /// chain to tuning-table/default, a missing artefact to model/default.
  guarded_planner(gpusim::device_spec spec,
                  std::shared_ptr<const frequency_planner> planner = nullptr,
                  std::shared_ptr<const tuning_table> table = nullptr,
                  drift_options drift = {});

  /// Resolve a batch down the chain: one quarantine check for the whole
  /// batch, and (on the healthy path) one envelope pass plus one fused
  /// predict per model via frequency_planner::plan_guarded_batch.
  /// Deterministic: identical state and inputs produce the identical
  /// decisions, and a batch of N counts tiers and advances the
  /// quarantine-probe cadence exactly as N batches of one. Safe to call
  /// concurrently with other plan()/plan_batch() calls — the hot path only
  /// reads planner state and bumps atomic counters; install()/observe()/
  /// reset_quarantine() must still be serialised against planning (the plan
  /// service does this with a reader/writer lock).
  [[nodiscard]] std::vector<plan_decision> plan_batch(
      std::span<const plan_request> reqs) const;

  /// Resolve one (kernel, features, target) request: a batch of one.
  [[nodiscard]] plan_decision plan(const std::string& kernel,
                                   const gpusim::static_features& k,
                                   const metrics::target& target) const;

  /// Feed one measured energy sample for drift tracking. `core_clock` is
  /// the clock the sample was actually taken at; the model's prediction at
  /// that clock is compared against `measured_energy_j`. No-op without a
  /// model tier.
  void observe(const std::string& kernel, const gpusim::static_features& k,
               common::megahertz core_clock, double measured_energy_j);

  /// Swap the model tier for a freshly promoted planner (or nullptr to
  /// drop to the lower tiers). Resets the drift monitor — the new model
  /// must re-calibrate its per-kernel baselines and re-earn (or re-lose)
  /// trust from a clean statistic — which also lifts any quarantine, so
  /// the promotion atomically restores the model tier. Not a concurrency
  /// primitive: callers serialise install() against plan()/observe() (the
  /// queue and the cluster simulator both do).
  void install(std::shared_ptr<const frequency_planner> planner);

  [[nodiscard]] bool quarantined() const { return drift_.quarantined(); }
  [[nodiscard]] const drift_monitor& drift() const { return drift_; }
  /// Lift a quarantine (after installing retrained models).
  void reset_quarantine() {
    drift_.reset();
    generation_.fetch_add(1, std::memory_order_release);
  }

  /// Monotonic chain-state generation: bumped whenever the decisions this
  /// chain would produce may change — model install, quarantine onset
  /// (detected in observe()), and quarantine lift. Plan caches key on it so a
  /// champion promotion invalidates by generation bump instead of a global
  /// flush, and so callers that install() directly on a shared guard still
  /// invalidate every cache layered above it.
  [[nodiscard]] std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Quarantine probes: while quarantined, every Nth plan resolves at the
  /// default clocks even when a tuning-table entry exists. The table was
  /// compiled against the same pre-drift measurements the quarantined model
  /// was trained on, and its per-kernel clocks sit close to the model's —
  /// samples taken there carry almost no frequency contrast. A deterministic
  /// minority of default-clock plans gives whoever is collecting retraining
  /// evidence (the model lifecycle) per-kernel samples at a distant clock
  /// while the fleet keeps the table's efficiency for the rest. 0 disables.
  void set_quarantine_probe_every(std::size_t n) {
    quarantine_probe_every_.store(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t quarantine_probes() const {
    return quarantine_probes_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool has_model_tier() const { return planner_ != nullptr; }
  [[nodiscard]] bool has_table_tier() const { return table_ != nullptr; }
  [[nodiscard]] const gpusim::device_spec& spec() const { return spec_; }
  [[nodiscard]] const std::shared_ptr<const frequency_planner>& planner() const {
    return planner_;
  }

  // --- fallback accounting (mirrored into the metrics registry). Counters
  // are atomic so plans can be served concurrently; relaxed ordering is
  // enough — they are statistics, not synchronisation. -----------------------
  [[nodiscard]] std::size_t model_plans() const {
    return model_plans_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t table_fallbacks() const {
    return table_fallbacks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t default_fallbacks() const {
    return default_fallbacks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t ood_rejections() const {
    return ood_rejections_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t prediction_rejections() const {
    return prediction_rejections_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t quarantine_rejections() const {
    return quarantine_rejections_.load(std::memory_order_relaxed);
  }

  /// Snapshot generation, counters, and drift state for checkpointing.
  /// Not thread-safe against concurrent planning (callers serialise, as with
  /// install()).
  [[nodiscard]] guard_state export_state() const;
  /// True when import_state(s) succeeds: the drift portion is consistent
  /// with this guard's drift options.
  [[nodiscard]] bool accepts(const guard_state& s) const { return drift_.accepts(s.drift); }
  /// Restore a snapshot taken by export_state(). Returns false (guard
  /// untouched) unless accepts(s). Same serialisation requirements as
  /// install().
  bool import_state(const guard_state& s);

 private:
  /// Tiers 2 and 3 (tuning table, default clocks). `out.reason`/`out.ood`/
  /// `out.probe` are already set.
  void fall_through(plan_decision& out, const std::string& kernel,
                    const metrics::target& target, bool probe) const;

  gpusim::device_spec spec_;
  std::shared_ptr<const frequency_planner> planner_;
  std::shared_ptr<const tuning_table> table_;
  drift_monitor drift_;
  std::atomic<std::uint64_t> generation_{0};
  mutable std::atomic<std::size_t> model_plans_{0};
  mutable std::atomic<std::size_t> table_fallbacks_{0};
  mutable std::atomic<std::size_t> default_fallbacks_{0};
  mutable std::atomic<std::size_t> ood_rejections_{0};
  mutable std::atomic<std::size_t> prediction_rejections_{0};
  mutable std::atomic<std::size_t> quarantine_rejections_{0};
  std::atomic<std::size_t> quarantine_probe_every_{0};
  mutable std::atomic<std::size_t> quarantine_probes_{0};
};

}  // namespace synergy

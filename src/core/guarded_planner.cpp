#include "synergy/guarded_planner.hpp"

#include <chrono>
#include <utility>

#include "synergy/telemetry/telemetry.hpp"

namespace synergy {

namespace tel = telemetry;

guarded_planner::guarded_planner(gpusim::device_spec spec,
                                 std::shared_ptr<const frequency_planner> planner,
                                 std::shared_ptr<const tuning_table> table,
                                 drift_options drift)
    : spec_(std::move(spec)),
      planner_(std::move(planner)),
      table_(std::move(table)),
      drift_(drift) {}

plan_decision guarded_planner::plan(const std::string& kernel,
                                    const gpusim::static_features& k,
                                    const metrics::target& target) const {
  const plan_request req{kernel, k, target};
  return std::move(plan_batch({&req, 1}).front());
}

void guarded_planner::fall_through(plan_decision& out, const std::string& kernel,
                                   const metrics::target& target, bool probe) const {
  // Tier 2: the compiled tuning-table artefact.
  if (table_ && !probe) {
    if (const auto entry = table_->find(kernel, target)) {
      table_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      SYNERGY_COUNTER_ADD("planner.fallback_table", 1);
      SYNERGY_INSTANT(tel::category::plan, "planner.fallback", {"tier", 1.0},
                      {"ood", out.ood ? 1.0 : 0.0});
      out.config = *entry;
      // A stale artefact may carry clocks this device cannot run; snap them.
      if (clamp_to_table(spec_, out.config)) {
        out.clamped = true;
        SYNERGY_COUNTER_ADD("planner.clock_clamped", 1);
      }
      out.tier = plan_tier::tuning_table;
      return;
    }
  }

  // Tier 3: driver default clocks — always available, never wrong, merely
  // unoptimised.
  default_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  SYNERGY_COUNTER_ADD("planner.fallback_default", 1);
  SYNERGY_INSTANT(tel::category::plan, "planner.fallback", {"tier", 2.0},
                  {"ood", out.ood ? 1.0 : 0.0});
  out.config = spec_.default_config();
  out.tier = plan_tier::default_clocks;
}

std::vector<plan_decision> guarded_planner::plan_batch(
    std::span<const plan_request> reqs) const {
  std::vector<plan_decision> out(reqs.size());
  if (reqs.empty()) return out;
#if SYNERGY_TELEMETRY_ENABLED
  // Plan latency feeds the snapshot's p50/p99, one observation per call
  // (wall clock, so the instrument is on the exporter's volatile list).
  struct latency_probe {
    std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
    ~latency_probe() {
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      SYNERGY_HISTOGRAM_OBSERVE("planner.plan_latency_us", us, 0.1, 1.0, 10.0, 100.0,
                                1000.0, 10000.0);
    }
  } probe_latency;
#endif
  SYNERGY_COUNTER_ADD("planner.plans", static_cast<std::int64_t>(reqs.size()));

  // Tier 1: the guarded model.
  if (!planner_) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      out[i].reason = "no model set loaded";
      fall_through(out[i], reqs[i].kernel, reqs[i].target, /*probe=*/false);
    }
    return out;
  }

  if (drift_.quarantined()) {
    // One quarantine check and one atomic fetch-add cover the whole batch;
    // the per-request probe cadence is computed from the reserved counter
    // range, so every Nth quarantined plan probes no matter how calls
    // interleave. A deterministic minority of quarantined plans skips the
    // table tier so retraining evidence gains default-clock samples (see
    // set_quarantine_probe_every).
    const std::size_t every = quarantine_probe_every_.load(std::memory_order_relaxed);
    const std::size_t start =
        quarantine_rejections_.fetch_add(reqs.size(), std::memory_order_relaxed);
    SYNERGY_COUNTER_ADD("planner.quarantine_rejections",
                        static_cast<std::int64_t>(reqs.size()));
    const std::string reason = "model set quarantined: " + drift_.quarantine_reason();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      out[i].reason = reason;
      const bool probe = every > 0 && (start + i + 1) % every == 0;
      if (probe) {
        quarantine_probes_.fetch_add(1, std::memory_order_relaxed);
        out[i].probe = true;
        SYNERGY_COUNTER_ADD("planner.quarantine_probes", 1);
      }
      fall_through(out[i], reqs[i].kernel, reqs[i].target, probe);
    }
    return out;
  }

  const auto guarded = planner_->plan_guarded_batch(reqs);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const guarded_plan& g = guarded[i];
    out[i].ood = g.ood;
    out[i].clamped = g.clamped;
    if (g.usable()) {
      model_plans_.fetch_add(1, std::memory_order_relaxed);
      SYNERGY_COUNTER_ADD("planner.plan_model", 1);
      if (g.clamped) SYNERGY_COUNTER_ADD("planner.clock_clamped", 1);
      out[i].config = *g.config;
      out[i].tier = plan_tier::model;
      continue;
    }
    if (g.ood) {
      ood_rejections_.fetch_add(1, std::memory_order_relaxed);
      SYNERGY_COUNTER_ADD("planner.ood_rejections", 1);
    } else {
      prediction_rejections_.fetch_add(1, std::memory_order_relaxed);
      SYNERGY_COUNTER_ADD("planner.prediction_rejections", 1);
    }
    out[i].reason = g.reason;
    fall_through(out[i], reqs[i].kernel, reqs[i].target, /*probe=*/false);
  }
  return out;
}

void guarded_planner::install(std::shared_ptr<const frequency_planner> planner) {
  planner_ = std::move(planner);
  drift_.reset();
  generation_.fetch_add(1, std::memory_order_release);
  SYNERGY_COUNTER_ADD("planner.model_installed", 1);
  SYNERGY_INSTANT(tel::category::plan, "planner.model_installed",
                  {"has_model", planner_ ? 1.0 : 0.0});
}

void guarded_planner::observe(const std::string& kernel, const gpusim::static_features& k,
                              common::megahertz core_clock, double measured_energy_j) {
  if (!planner_) return;
  const bool was_quarantined = drift_.quarantined();
  const auto predicted = planner_->predicted_energy(k, core_clock);
  if (!predicted) {
    // A model that cannot even produce a finite prediction is drift by
    // definition; feed an invalid pair so the rejection is counted.
    drift_.observe(kernel, 0.0, measured_energy_j);
  } else {
    drift_.observe(kernel, *predicted, measured_energy_j);
  }
  // Quarantine onset changes every decision the chain would produce; bump
  // the generation so plan caches keyed on it drop their model-tier entries.
  if (!was_quarantined && drift_.quarantined())
    generation_.fetch_add(1, std::memory_order_release);
}

guard_state guarded_planner::export_state() const {
  guard_state s;
  s.generation = generation_.load(std::memory_order_acquire);
  s.model_plans = model_plans_.load(std::memory_order_relaxed);
  s.table_fallbacks = table_fallbacks_.load(std::memory_order_relaxed);
  s.default_fallbacks = default_fallbacks_.load(std::memory_order_relaxed);
  s.ood_rejections = ood_rejections_.load(std::memory_order_relaxed);
  s.prediction_rejections = prediction_rejections_.load(std::memory_order_relaxed);
  s.quarantine_rejections = quarantine_rejections_.load(std::memory_order_relaxed);
  s.quarantine_probes = quarantine_probes_.load(std::memory_order_relaxed);
  s.drift = drift_.export_state();
  return s;
}

bool guarded_planner::import_state(const guard_state& s) {
  if (!drift_.import_state(s.drift)) return false;
  generation_.store(s.generation, std::memory_order_release);
  model_plans_.store(s.model_plans, std::memory_order_relaxed);
  table_fallbacks_.store(s.table_fallbacks, std::memory_order_relaxed);
  default_fallbacks_.store(s.default_fallbacks, std::memory_order_relaxed);
  ood_rejections_.store(s.ood_rejections, std::memory_order_relaxed);
  prediction_rejections_.store(s.prediction_rejections, std::memory_order_relaxed);
  quarantine_rejections_.store(s.quarantine_rejections, std::memory_order_relaxed);
  quarantine_probes_.store(s.quarantine_probes, std::memory_order_relaxed);
  return true;
}

}  // namespace synergy

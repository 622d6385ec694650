#pragma once

/// \file layers.hpp
/// Per-layer instrumentation the replay benchmark applies from outside the
/// simulator: transparent decorators around the two seams the public API
/// exposes (scheduling_policy, plan_fn), and best-of tight loops that price
/// one call of the layers it cannot wrap (event engine, power budget, DVFS
/// model, energy ledger, econ cost meter). A per-call price times the run's
/// own call count is a *composed* cost, the method of
/// bench/microbench_obs_overhead.

#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "synergy/cluster/policy.hpp"
#include "synergy/econ/tco.hpp"

namespace replaybench {

using bench_clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(bench_clock::time_point t0) {
  return std::chrono::duration<double>(bench_clock::now() - t0).count();
}

/// Calls into the scheduling policy and the host time they took.
struct policy_stats {
  std::size_t place_calls{0};
  std::size_t place_ok{0};  ///< place() calls that returned a placement
  std::size_t defer_calls{0};
  double place_s{0.0};  ///< includes the plan_fn calls place() makes
  double defer_s{0.0};
};

/// Wraps a scheduling policy and times place()/defer(); name() and
/// backfills() delegate, so the simulator (and its checkpoint fingerprint)
/// cannot tell the wrapper from the policy it wraps.
class timed_policy final : public synergy::cluster::scheduling_policy {
 public:
  timed_policy(std::unique_ptr<synergy::cluster::scheduling_policy> inner, policy_stats& stats)
      : inner_(std::move(inner)), stats_(&stats) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool backfills() const override { return inner_->backfills(); }

  [[nodiscard]] std::optional<synergy::cluster::placement> place(
      const synergy::cluster::queued_job& job,
      const synergy::cluster::cluster_view& view) override;

  [[nodiscard]] bool defer(const synergy::cluster::queued_job& job,
                           const synergy::cluster::cluster_view& view) const override;

 private:
  std::unique_ptr<synergy::cluster::scheduling_policy> inner_;
  policy_stats* stats_;
};

/// Calls into the plan resolver: every call's latency, and the latency of
/// the first call per (kernel, target) key.
struct plan_stats {
  std::vector<double> call_us;
  std::vector<double> cold_us;
  std::set<std::string> seen;
  double total_s{0.0};
};

/// Wrap `inner` so every call is timed into `stats` (which must outlive the
/// returned resolver). The decision is returned unchanged.
[[nodiscard]] synergy::cluster::plan_fn timed_plan(synergy::cluster::plan_fn inner,
                                                   plan_stats& stats);

/// Best-of tight-loop prices of one call, in seconds.
struct unit_costs {
  double event_s{0.0};      ///< event_engine: schedule + fire one closure event
  double evaluate_s{0.0};   ///< dvfs_model::evaluate on a suite kernel
  double rebalance_s{0.0};  ///< power_budget::rebalance on the workload's cluster
  double charge_s{0.0};     ///< energy_ledger::charge into a fresh per-job cell
  double econ_charge_s{0.0};  ///< econ::cost_meter::charge (0 without econ)
};

/// Measure the unit costs for a cluster of `n_nodes` x `gpus_per_node` V100s
/// under `facility_cap_w` (0 = uncapped, priced at a binding cap anyway so
/// the figure stays comparable). `econ` prices the cost meter when usable.
[[nodiscard]] unit_costs measure_unit_costs(std::size_t n_nodes, std::size_t gpus_per_node,
                                            double facility_cap_w,
                                            const synergy::econ::econ_config& econ);

}  // namespace replaybench

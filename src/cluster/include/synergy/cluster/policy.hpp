#pragma once

/// \file policy.hpp
/// Pluggable scheduling policies for the cluster simulator.
///
/// A policy answers one question per scheduling round: given a queued job
/// and the current cluster occupancy, which GPU slots should it start on
/// now — and at what clocks? Three policies ship:
///
///  - fifo: strict arrival order; a head job that does not fit blocks the
///    queue (the baseline every HPC scheduler paper compares against).
///  - easy_backfill: the head gets a reservation at the earliest time
///    enough GPUs drain (the EASY shadow time); later jobs may jump ahead
///    iff their estimated completion does not cross that reservation.
///  - energy_aware: EASY's queue discipline, plus placement that prefers
///    emptier nodes and, on a frequency-capable cluster (the paper's
///    Sec. 7.2 check chain decides capability), a per-job frequency plan
///    resolved from the kernel's tuning-table / planner entry for the job's
///    energy target.
///  - cost_aware: energy_aware's placement, plus the econ plane's defer
///    rule — deferrable jobs wait out expensive price windows (bounded by
///    their deadlines) and start in cheap/clean ones instead.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "synergy/cluster/job_trace.hpp"
#include "synergy/common/units.hpp"
#include "synergy/metrics/energy_metrics.hpp"
#include "synergy/obs/energy_ledger.hpp"

namespace synergy::econ {
struct econ_config;  // facility economics knobs (synergy/econ/tco.hpp)
}

namespace synergy::cluster {

/// One GPU of the cluster, addressed by (node index, gpu index).
struct gpu_slot {
  std::size_t node{0};
  std::size_t gpu{0};
  friend bool operator==(const gpu_slot&, const gpu_slot&) = default;
};

/// Occupancy snapshot a policy sees. The simulator keeps one view current as
/// jobs start and end and hands it to every scheduling pass, so a policy
/// must not keep a reference to it past the call it was passed to.
struct cluster_view {
  struct node_view {
    std::vector<bool> gpu_busy;
    /// Modelled completion time of the job holding each GPU (= now when
    /// the GPU is free).
    std::vector<double> busy_until;
  };

  double now{0.0};
  std::vector<node_view> nodes;
  /// The Sec. 7.2 prologue chain outcome, one for the cluster: every node
  /// is tagged with the nvgpufreq GRES and loads its management library,
  /// or none is. Placements on a cluster that fails the chain run at
  /// default clocks.
  bool freq_capable{false};
  /// True while the policy is asked about the queue head; false for
  /// backfill candidates behind a blocked head.
  bool is_head{true};
  /// EASY shadow time: earliest instant enough GPUs drain for the blocked
  /// head (+inf when the head is not blocked or unknown).
  double head_reservation_s{0.0};

  [[nodiscard]] std::size_t free_gpus() const;
};

/// A policy's verdict: the slots to occupy and the clocks to run at
/// (nullopt config = driver-default application clocks). `plan_cause` names
/// the chain tier that priced the clocks — the simulator tags the job's
/// joules with it, so the attribution travels with the placement instead of
/// being read back from planner state after the fact (which raced once plans
/// were served concurrently).
struct placement {
  std::vector<gpu_slot> gpus;
  std::optional<common::frequency_config> config;
  obs::cause plan_cause{obs::cause::oracle};
};

/// Job as the policy sees it: its row of the replayed trace plus the
/// simulator's runtime estimate at default clocks (the "user-provided"
/// estimate EASY needs). The simulator builds one for each defer() and
/// place() call, so a policy must not keep it past the call.
struct queued_job {
  const traced_job& job;
  double est_runtime_s{0.0};
};

class scheduling_policy {
 public:
  virtual ~scheduling_policy() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Decide whether `job` may start now and where. Empty optional leaves
  /// it queued for the next round. Precondition: the job fits the view's
  /// free GPUs (`job.job.n_gpus <= view.free_gpus()`); the simulator never
  /// offers a job that does not.
  [[nodiscard]] virtual std::optional<placement> place(const queued_job& job,
                                                       const cluster_view& view) = 0;

  /// Whether jobs behind a blocked head may be offered to place().
  [[nodiscard]] virtual bool backfills() const { return false; }

  /// Econ hook, asked before place(): true leaves `job` queued for a
  /// cheaper/cleaner price window. The simulator re-asks at every price
  /// boundary (its econ tick), so a policy only answers "not now", never
  /// schedules a wake-up itself. Default: nothing defers.
  [[nodiscard]] virtual bool defer(const queued_job& job, const cluster_view& view) const {
    (void)job;
    (void)view;
    return false;
  }
};

/// A resolved frequency plan plus the attribution cause of the tier that
/// produced it. Implicitly constructible from a bare frequency_config
/// (attributed to the oracle) so simple resolvers — oracle tables, test
/// lambdas — keep returning configs directly.
struct planned_clocks {
  common::frequency_config config;
  obs::cause cause{obs::cause::oracle};
  planned_clocks(common::frequency_config c, obs::cause why = obs::cause::oracle)
      : config(c), cause(why) {}
};

/// Resolve (kernel, target) to a frequency plan. The simulator backs this
/// with the compiled tuning table and the oracle planner, or with the
/// guarded plan service (which reports the degradation tier per decision);
/// tests may inject anything.
using plan_fn = std::function<planned_clocks(const std::string& kernel,
                                             const metrics::target& target)>;

[[nodiscard]] std::unique_ptr<scheduling_policy> make_fifo();
[[nodiscard]] std::unique_ptr<scheduling_policy> make_easy_backfill();

/// `plan` resolves frequency targets; `override_target` (if set) replaces
/// every job's trace-recorded target, which lets one trace be replayed
/// under several objectives (the bench's Fig. 10-style sweep).
[[nodiscard]] std::unique_ptr<scheduling_policy> make_energy_aware(
    plan_fn plan, std::optional<metrics::target> override_target = std::nullopt);

/// The econ policy: energy_aware's placement plus price-window deferral
/// driven by `econ` (which must outlive the policy — the simulator's
/// cluster_config owns it). Deferrable jobs wait while the spot price sits
/// above defer_price_ratio x mean, but only when the next price boundary
/// still lets them finish inside their deadline. Throws
/// std::invalid_argument when `econ` is null or carries no price trace.
[[nodiscard]] std::unique_ptr<scheduling_policy> make_cost_aware(
    const econ::econ_config* econ, plan_fn plan = {},
    std::optional<metrics::target> override_target = std::nullopt);

/// Policy registry by name ("fifo", "backfill", "energy", "cost"); the
/// energy policy needs `plan`, the cost policy needs `econ`. Throws
/// std::invalid_argument for unknown names.
[[nodiscard]] std::unique_ptr<scheduling_policy> make_policy(
    const std::string& policy_name, plan_fn plan = {},
    std::optional<metrics::target> override_target = std::nullopt,
    const econ::econ_config* econ = nullptr);

}  // namespace synergy::cluster

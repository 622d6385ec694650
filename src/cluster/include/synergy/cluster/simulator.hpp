#pragma once

/// \file simulator.hpp
/// The discrete-event cluster simulator: trace in, summary out.
///
/// The simulator replays a job trace against a modelled cluster: every node
/// is the one cluster_config describes (device, GPU count, host power,
/// nvgpufreq tag), so the inventory is the ordinals of the nodes that are
/// up. Job costs are charged through the gpusim DVFS model at the clocks
/// the scheduling policy picked, and a facility power budget admits/demotes/
/// defers placements. Everything advances on the event engine's virtual
/// time, so a 1000-job / 64-node run takes milliseconds and is
/// bit-reproducible: same trace + policy + config, same summary CSV.
///
/// Telemetry: arrivals, placements, completions, queue waits, and cap
/// rebalances are emitted as sched-category events; job lifetimes render
/// on a dedicated cluster timeline (trace_event::cluster_pid) next to the
/// host and device lanes in tools/synergy_trace exports.

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "synergy/cluster/checkpoint.hpp"
#include "synergy/cluster/engine.hpp"
#include "synergy/common/error.hpp"
#include "synergy/common/rng.hpp"
#include "synergy/cluster/job_trace.hpp"
#include "synergy/cluster/policy.hpp"
#include "synergy/cluster/power_budget.hpp"
#include "synergy/econ/tco.hpp"
#include "synergy/governor/governor.hpp"
#include "synergy/obs/energy_ledger.hpp"
#include "synergy/sched/job.hpp"

namespace synergy {
class guarded_planner;  // core guardrail chain (synergy/guarded_planner.hpp)
class plan_service;     // concurrent plan cache over the chain (synergy/plan_service.hpp)
}

namespace synergy::obs {
class slo_watchdog;  // SLO rule evaluator (synergy/obs/slo_watchdog.hpp)
}

namespace synergy::lifecycle {
class lifecycle_manager;  // retrain/shadow-eval worker (synergy/lifecycle/lifecycle_manager.hpp)
enum class lifecycle_action;
}  // namespace synergy::lifecycle

namespace synergy::cluster {

/// Seeded fault plan for a cluster replay (mirrors the vendor-layer
/// fault_injector at job granularity). All rolls come from one pcg32 seeded
/// with `seed` and consumed in deterministic event order, so a given
/// (trace, policy, plan) triple injects a bit-identical fault pattern —
/// the acceptance contract: same seed, same summary CSV.
///
/// Degradation semantics (ARCHITECTURE.md Sec. 10):
///  - clock-set failure: the prologue's retries were exhausted, the job runs
///    at default clocks and is flagged `clock_set_failed` (degraded sample);
///    its energy lies between the planned-clock and default-clock cost, so
///    a faulty run's total GPU energy is bounded by the fault-free totals of
///    the same trace under the tuned and default-clock policies.
///  - power-read dropout: the job's energy sample is flagged degraded
///    (`energy_degraded`) but still accounted.
///  - device-lost: one GPU dies mid-job; every job on that node is requeued
///    (never lost), the node is drained and leaves the inventory, and the
///    partial execution is charged to `wasted_gpu_energy_j`.
struct fault_plan {
  std::uint64_t seed{0xfa0175eedULL};
  double clock_set_fail_rate{0.0};    ///< per placement
  double power_read_dropout_rate{0.0};  ///< per completion
  double device_lost_rate{0.0};       ///< per placement
  /// Upper bound on nodes the plan may kill (at least one node always
  /// survives regardless).
  std::size_t max_node_losses{std::numeric_limits<std::size_t>::max()};

  [[nodiscard]] bool enabled() const {
    return clock_set_fail_rate > 0.0 || power_read_dropout_rate > 0.0 ||
           device_lost_rate > 0.0;
  }
};

/// Deterministic mid-run power drift for the fleet's boards: from `at_s`
/// on, every job's modelled GPU power is multiplied by
/// `power_skew * (core_clock / default_clock)^freq_exponent` — aging or a
/// firmware regression that changes the boards' *frequency response*, not
/// just their absolute draw. A non-zero exponent is what makes drift
/// model-relevant: the trained models' normalised frequency curves become
/// wrong (the drift monitor trips), and only a retrain measured on drifted
/// hardware can restore the model tier.
struct drift_plan {
  double at_s{-1.0};          ///< onset on the cluster timeline; < 0 disables
  double power_skew{1.0};     ///< clock-independent power multiplier
  double freq_exponent{0.0};  ///< clock-dependent component (gamma)

  [[nodiscard]] bool enabled() const {
    return at_s >= 0.0 && power_skew > 0.0 &&
           (power_skew != 1.0 || freq_exponent != 0.0);
  }
  /// Multiplier applied to modelled power at `core_mhz`.
  [[nodiscard]] double factor(double core_mhz, double default_core_mhz) const;
};

/// Seeded node-level chaos for a cluster replay: whole nodes crash at
/// exponentially distributed virtual times and (optionally) warm-restart
/// after a fixed outage. A crash drains the node exactly like the PR 3
/// device-lost path — every in-flight job there is requeued (never lost),
/// its partial execution is charged to `wasted_gpu_energy_j` with ledger
/// cause `fault_wasted`, and the facility power budget is rebuilt and
/// rebalanced over the surviving inventory. A restart re-admits the node
/// (fresh idle slots, budget rebuild + rebalance, immediate scheduling
/// pass). All crash times and victim picks come from one pcg32 seeded with
/// `seed`, independent of the device-fault stream, so chaos replays are
/// bit-identical per seed.
struct chaos_plan {
  std::uint64_t seed{0xc4a05c4a05ULL};
  /// Mean time between node crashes (virtual seconds); <= 0 disables.
  double mtbf_s{0.0};
  /// Outage duration before the crashed node warm-restarts; <= 0 means
  /// crashed nodes never return (cold loss, like device-lost removal).
  double restart_delay_s{0.0};
  /// Upper bound on crash events for the run; 0 disables.
  std::size_t max_crashes{0};

  [[nodiscard]] bool enabled() const { return mtbf_s > 0.0 && max_crashes > 0; }
};

/// Reactive-governor regime for the replay. When enabled, every placed job
/// runs under its own governor instance: the placement's clock (the
/// scheduling policy's pick — the planner's prediction under a planning
/// policy, driver default under a baseline policy) seeds the governor, and
/// governor tick events on the engine's virtual clock re-observe the job's
/// modelled power/utilisation and may move the clock mid-job. Jobs whose
/// joules accrue before the governor first deviates from the seed stay
/// attributed to the seeding tier; everything after charges the `governor`
/// ledger cause. All ticks are virtual-time events, so governed replays
/// remain byte-identical per seed.
struct governor_config {
  bool enabled{false};
  governor::governor_spec spec{};
  /// Poll cadence on the cluster's virtual clock (seconds).
  double tick_interval_s{0.25};
};

struct cluster_config {
  std::size_t n_nodes{16};
  std::size_t gpus_per_node{4};
  std::string device{"V100"};
  double host_power_w{350.0};
  /// Facility power cap in watts (hosts + GPUs); <= 0 disables capping.
  double facility_cap_w{0.0};
  /// Tag every node with the nvgpufreq GRES (Sec. 7.2 capability); false
  /// models a cluster where the plugin is not deployed, so energy-aware
  /// placements run at default clocks.
  bool tag_nvgpufreq{true};
  /// Fault injection for the replay; disabled by default.
  fault_plan faults{};
  /// Mid-run power drift for the fleet; disabled by default.
  drift_plan drift{};
  /// Node-level chaos (crash/restart) for the replay; disabled by default.
  chaos_plan chaos{};
  /// Reactive governor regime; disabled by default.
  governor_config governor{};
  /// Facility economics: price/carbon traces, capex amortisation, and the
  /// defer/demote thresholds. Disabled by default — an unconfigured replay
  /// produces byte-identical output to the pre-econ simulator.
  econ::econ_config econ{};
  /// Observability scrape cadence on the cluster's virtual clock: every
  /// `obs_scrape_interval_s` simulated seconds the global energy ledger
  /// samples a time-series point, the attached watchdog evaluates its
  /// rules, and the scrape hook (live snapshot writer) runs. <= 0 disables.
  double obs_scrape_interval_s{0.0};
};

/// What happened to one job of the replayed trace: simulator::results()[i]
/// is row i's outcome. The submission columns (id, name, kernel, target,
/// GPU count, submit time) are read from the trace row, never copied here.
struct job_result {
  sched::job_state state{sched::job_state::pending};
  double start_s{-1.0};
  double end_s{-1.0};
  double queue_wait_s{0.0};
  double gpu_energy_j{0.0};
  double core_mhz{0.0};  ///< core clock the job ran at
  bool demoted{false};   ///< plan lowered by the power budget
  bool clock_set_failed{false};  ///< ran at default clocks after clock-set faults
  bool energy_degraded{false};   ///< power-read dropout: energy sample untrusted
  int requeues{0};               ///< times requeued after a device-lost event
  std::string failure_reason;
};

/// Whole-run metrics; `csv` output starts with a `# seed=... policy=...`
/// comment so any summary names the trace that produced it.
struct run_summary {
  std::uint64_t seed{0};
  std::string policy;
  std::size_t jobs{0};
  std::size_t completed{0};
  std::size_t failed{0};
  double makespan_s{0.0};
  double total_gpu_energy_j{0.0};   ///< busy GPU energy across jobs
  double facility_energy_j{0.0};    ///< hosts + busy/idle GPUs over the run
  double mean_wait_s{0.0};
  double p50_wait_s{0.0};
  double p95_wait_s{0.0};
  double max_wait_s{0.0};
  double throughput_jobs_per_h{0.0};
  double gpu_utilization{0.0};      ///< busy GPU-seconds / (GPUs x makespan)
  double peak_facility_power_w{0.0};
  std::size_t cap_rebalances{0};
  std::size_t cap_demotions{0};
  // --- fault / degradation accounting (all zero on fault-free runs) ---
  std::size_t clock_set_faults{0};   ///< placements that fell back to default clocks
  std::size_t degraded_samples{0};   ///< completions with an untrusted energy sample
  std::size_t requeues{0};           ///< job requeues caused by device-lost events
  std::size_t nodes_lost{0};         ///< nodes drained + removed after device loss
  double wasted_gpu_energy_j{0.0};   ///< partial executions killed by device loss
  // --- node-level chaos (zero unless a chaos_plan was enabled) ---
  std::size_t node_crashes{0};   ///< whole-node crash events injected
  std::size_t node_restarts{0};  ///< crashed nodes warm-restarted and re-admitted
  // --- model lifecycle (zero unless attach_recovery was wired) ---
  std::size_t quarantines{0};  ///< drift-monitor trips observed during the run
  std::size_t promotions{0};   ///< retrained challengers promoted mid-run
  std::size_t rollbacks{0};    ///< probation rollbacks performed mid-run
  // --- reactive governor (zero on ungoverned runs) ---
  std::size_t governor_ticks{0};          ///< governor polls across all jobs
  std::size_t governor_clock_changes{0};  ///< decisions that moved a clock
  // --- facility economics (zero unless an econ_config was enabled) ---
  double econ_cost_usd{0.0};          ///< facility opex + amortised capex
  double econ_capex_usd{0.0};         ///< amortised capex share of the above
  double econ_carbon_g{0.0};          ///< facility carbon over the run
  double econ_cost_per_job_usd{0.0};  ///< total cost / completed jobs
  double econ_carbon_per_job_g{0.0};  ///< facility carbon / completed jobs
  std::size_t econ_jobs_deferred{0};      ///< jobs shifted out of pricey windows
  std::size_t econ_price_demotions{0};    ///< placements clock-stepped by price

  /// One column after `policy` and `seed`: its CSV name and the member it
  /// reads, a count or a real. csv() and the checkpoint both walk this
  /// table, so a new counter is one member plus one row.
  struct field {
    const char* name;
    std::size_t run_summary::*count{nullptr};
    double run_summary::*value{nullptr};
    field(const char* n, std::size_t run_summary::*m) : name(n), count(m) {}
    field(const char* n, double run_summary::*m) : name(n), value(m) {}
  };
  [[nodiscard]] static std::span<const field> fields();

  void print(std::ostream& os) const;
  /// One header + one row; `with_header` also writes the comment and
  /// column rows (false appends a row to an existing block).
  void csv(std::ostream& os, bool with_header = true) const;
};

class simulator {
 public:
  simulator(cluster_config config, std::unique_ptr<scheduling_policy> policy);
  ~simulator();

  /// Replay `trace` to completion; resets all per-run state first, so one
  /// simulator can replay several traces. Throws std::invalid_argument,
  /// before resetting anything, when validate_trace() rejects `trace`.
  run_summary run(const job_trace& trace);

  /// One outcome per row of the trace the last run()/resume() replayed, in
  /// trace order.
  [[nodiscard]] const std::vector<job_result>& results() const { return run_.results; }

  /// Modelled facility power sampled after every event, as (time, watts)
  /// pairs — the budget test asserts every sample respects the cap.
  [[nodiscard]] const std::vector<std::pair<double, double>>& power_samples() const {
    return power_samples_;
  }

  /// The names of the nodes that are up, in inventory order: "cn" and the
  /// node's zero-padded ordinal. Restarted nodes rejoin at the back.
  [[nodiscard]] std::vector<std::string> node_names() const;
  [[nodiscard]] const cluster_config& config() const { return config_; }

  /// Close the model-lifecycle loop over this cluster: every trusted job
  /// completion feeds `guard`'s drift monitor and `manager`'s replay buffer
  /// (per-item, per-GPU energies, so job size cancels out), and the manager
  /// is stepped on simulation time. When it promotes or rolls back, the new
  /// champion of the manager's registry is installed into `guard` mid-run —
  /// the scheduling policy built on the guard resumes model-tier planning
  /// without a restart. Attach before run(); both must share the device of
  /// this cluster and outlive the simulator. Throws std::invalid_argument
  /// when checkpointing is enabled (see set_checkpointing()).
  void attach_recovery(std::shared_ptr<guarded_planner> guard,
                       std::shared_ptr<lifecycle::lifecycle_manager> manager);

  /// Wire the observability plane: `watchdog` (may be nullptr) is fed job
  /// completions / planner tiers / quarantine state and evaluated on every
  /// scrape tick. A job's joules carry the tier its placement reported, so
  /// `attribution_guard` — the guarded_planner the scheduling policy plans
  /// through — is read only for the watchdog's quarantine observation at each
  /// completion (falling back to the recovery guard). Attach before run().
  void attach_observability(std::shared_ptr<obs::slo_watchdog> watchdog,
                            std::shared_ptr<guarded_planner> attribution_guard = nullptr);

  /// Called after every scrape tick (and once at end of run) with the
  /// current virtual time — tools use it to emit live snapshot files.
  void set_scrape_hook(std::function<void(double)> hook);

  /// Enable periodic virtual-time checkpointing (and/or crash injection) for
  /// subsequent run()/resume() calls. Throws std::invalid_argument when the
  /// config has the reactive governor enabled — per-job governor state is
  /// not serialisable (see ARCHITECTURE §17's operational contract) — or
  /// when a lifecycle recovery loop is attached; attach_recovery() throws
  /// the same error in the other order. Pass the guard/service the
  /// scheduling policy plans through via `opts` so their state (drift
  /// window, tier counters, plan cache) rides in the artefact.
  void set_checkpointing(checkpoint_options opts);

  /// Serialize the full simulator state at the current virtual time into a
  /// checkpoint payload (unsealed; callers wrap it with envelope::seal).
  /// Normally driven by the periodic tick, but public for tests.
  [[nodiscard]] std::string serialize_checkpoint() const;

  /// Restore state from a checkpoint payload (already opened fail-closed
  /// through the envelope). `trace` must be the same trace the exporting
  /// run replayed — identity is verified by CRC over its CSV rendering —
  /// and must pass validate_trace().
  /// On any parse/consistency error the simulator is left untouched and
  /// the status names the offending section. Call set_checkpointing() and
  /// attach_observability() (when the exporting run had them) first.
  [[nodiscard]] common::status restore_checkpoint(const std::string& payload,
                                                  const job_trace& trace);

  /// Continue a restored run to completion. The restored event heap fires in
  /// its original tie-break order, so the summary, per-job results, ledger,
  /// and snapshot rendering are byte-identical to the uninterrupted run.
  /// Precondition: restore_checkpoint() succeeded.
  [[nodiscard]] run_summary resume(const job_trace& trace);

  /// Scrape ticks fired so far (restored across resume) — tools use it to
  /// re-seed the snapshot sequence number.
  [[nodiscard]] std::uint64_t scrape_ticks() const { return run_.scrape_ticks; }
  /// The run's cost/carbon accumulators (inactive unless config().econ is
  /// usable) — tools read it for snapshot fields and the cost report.
  [[nodiscard]] const econ::cost_meter& econ_meter() const { return econ_meter_; }
  /// Checkpoint files written by this simulator so far.
  [[nodiscard]] std::uint64_t checkpoints_written() const { return run_.ckpt_index; }

  /// Print the per-job sacct-style table of the last run. Id, kernel,
  /// target and GPU count come from the trace the last run()/resume()
  /// replayed, which must still be alive.
  void report(std::ostream& os) const;

 private:
  /// The checkpoint payload layout (checkpoint.cpp): one transfer() per
  /// record, shared by serialize_checkpoint() and restore_checkpoint().
  friend struct checkpoint_layout;
  /// What set_checkpointing() and attach_recovery() throw, whichever of the
  /// two comes second.
  static constexpr const char* lifecycle_checkpointing_error =
      "simulator: checkpointing is incompatible with the lifecycle recovery loop "
      "(in-memory retrain state is not serialisable; see ARCHITECTURE Sec. 17)";

  /// What a pending event does when it fires. The values are the
  /// checkpoint's `ev` kind column: append, never renumber. Kinds from
  /// `checkpoint` on are never written; resume() re-arms them itself.
  enum class event_kind : std::uint8_t {
    arrival,        ///< id = trace row
    completion,     ///< id = trace row, epoch = the job's incarnation
    governor_tick,  ///< id = trace row, epoch = the job's incarnation
    device_lost,    ///< id = node ordinal (the NNN of cnNNN)
    node_crash,     ///< the victim is drawn when it fires
    node_restart,   ///< id = node ordinal
    scrape,
    econ,
    checkpoint,
    crash_injection,
  };
  struct sim_event {
    event_kind kind{event_kind::arrival};
    std::int64_t id{0};
    std::uint64_t epoch{0};
  };
  using sim_engine = basic_event_engine<sim_event>;
  /// Arrivals and node events are live work: while any is pending, the
  /// self-rescheduling ticks keep going.
  static bool is_live(event_kind k) {
    return k == event_kind::arrival || k == event_kind::device_lost ||
           k == event_kind::node_crash || k == event_kind::node_restart;
  }

  /// Install the nodes `ordinals` lists, in that order, with a fresh power
  /// budget over them and a view of them with every GPU free.
  void install_nodes(std::vector<std::size_t> ordinals);
  /// The configured inventory: ordinals 0 to n_nodes - 1.
  [[nodiscard]] std::vector<std::size_t> configured_nodes() const;
  /// A budget over the inventory with every GPU idle: each node draws
  /// config_.host_power_w and each GPU the device's idle power.
  [[nodiscard]] std::unique_ptr<power_budget> make_budget() const;
  /// Inventory node names are "cn" + the zero-padded ordinal.
  static std::string node_name(std::size_t ordinal);
  /// Ordinal of a canonical node name; npos when `name` is not one.
  static std::size_t node_ordinal(std::string_view name);
  /// Schedule one event, counting live work.
  void schedule(double t, event_kind kind, std::int64_t id = 0, std::uint64_t epoch = 0);
  /// The single dispatch point: every event the engine fires lands here.
  void dispatch(const sim_event& e);
  void arrive(std::size_t row);
  void complete(std::size_t row, std::uint64_t epoch);
  /// Fail trace row `row`, which has not started, for `reason`.
  void fail(std::size_t row, const char* reason);
  /// A GPU on node `ordinal` (the NNN of cnNNN) fell off the bus: lose the
  /// node, unless it is gone already, it is the last node, or the fault
  /// plan's loss budget is spent.
  void device_lost(std::size_t ordinal);
  /// Lose node index `ni` (device_lost() and node_crash()): close the
  /// facility integral, drain and remove the node, rebuild the budget over
  /// the survivors, let `record(requeued)` count the loss, then rebalance,
  /// run a scheduling pass and sample the power.
  void lose_node(std::size_t ni, const std::function<void(std::size_t)>& record);
  /// Requeue every job running on node index `ni` with wasted-energy
  /// attribution (cause::fault_wasted); returns how many were drained.
  std::size_t drain_node(std::size_t ni);
  /// Rebuild the power budget against the current inventory, re-registering
  /// every running job's demand and folding counters into the summary.
  void rebuild_budget();
  /// Node-level chaos: crash a drawn victim; warm-restart node `ordinal`.
  void node_crash();
  void node_restart(std::size_t ordinal);
  /// Periodic checkpoint tick: serialize + seal + atomic write, reschedule.
  void checkpoint_tick();
  /// True while undrained work can still schedule events: pending arrivals
  /// or node events, or running jobs. The self-rescheduling ticks (scrape,
  /// econ, checkpoint) key off this instead of engine emptiness so two tick
  /// streams cannot keep each other alive forever.
  [[nodiscard]] bool has_live_work() const { return live_events_ > 0 || !run_.running.empty(); }
  /// Shared tail of run()/resume(): drive the engine dry, close accounting,
  /// fail whatever never scheduled, assemble the summary.
  run_summary finish_run();
  /// Stable digest of the replay-relevant configuration; a checkpoint only
  /// restores into a simulator whose digest matches.
  [[nodiscard]] std::string config_fingerprint() const;
  /// Scheduling passes until one starts nothing. True when that last pass
  /// left a job the policy deferred: the econ tick re-arms on it. With the
  /// econ meter off, a pass with no free GPU is not run: every job needs a
  /// GPU, and only defer() could see it.
  bool try_schedule();
  /// Stamp view_.now and view_'s free GPUs with the current time, unless
  /// they carry it already: no release() or extend_view() since a stamp at
  /// this instant.
  void make_view();
  /// Append to view_ every inventory node past its end, all GPUs free: the
  /// whole inventory after view_.nodes.clear(), or a node that just joined.
  void extend_view();
  /// GPUs in the inventory: every node has config_.gpus_per_node.
  [[nodiscard]] std::size_t gpu_count() const { return nodes_.size() * config_.gpus_per_node; }
  /// A job's per-GPU cost at one clock: the DVFS model's cost with its draw
  /// drifted as of now and its energy re-derived from that draw, and the
  /// model's undrifted draw (what the trained models believe; the hybrid
  /// governor's watt target).
  struct priced_run {
    gpusim::kernel_cost cost;
    double model_power_w{0.0};
  };
  /// Price `folded` (a job's whole launch stream) at `at`. Every DVFS model
  /// call of the replay goes through here.
  [[nodiscard]] priced_run price(const gpusim::kernel_profile& folded,
                                 const common::frequency_config& at) const;
  /// Facility-cap admission: demote `config` down the clock table until
  /// the job fits the headroom; false = defer (or can never fit).
  bool admit(const traced_job& job, common::frequency_config& config, bool& demoted) const;
  /// Feasibility floor under a cap: the job's draw at the lowest clock,
  /// drifted as start() would register it now, on an otherwise-idle
  /// cluster exceeds the cap, so admit() can never pass it.
  [[nodiscard]] bool above_cap_when_idle(const traced_job& job) const;
  void start(std::size_t queue_index, const placement& pl);
  /// Close the facility energy (and cost) integral at `t`.
  void integrate_to(double t);
  /// Ledger sample, watchdog evaluation and scrape hook at `t`.
  void scrape(double t);
  /// Governor poll for one governed job (epoch-guarded like complete()).
  void governor_tick(std::size_t row, std::uint64_t epoch);
  /// Drift multiplier on modelled power at `core_mhz`, as of now.
  [[nodiscard]] double drift_factor_now(double core_mhz) const;
  void sample_power();

  cluster_config config_;
  std::unique_ptr<scheduling_policy> policy_;
  /// The nodes that are up, in view order: each is the ordinal of its name
  /// (the NNN of cnNNN). Every node fact beside it is in config_.
  std::vector<std::size_t> nodes_;
  gpusim::device_spec spec_;
  gpusim::dvfs_model model_;

  sim_engine engine_;
  /// The trace the current run()/resume() replays. Every per-job record
  /// names its job by its row here, which is also its run_.results row.
  const job_trace* trace_{nullptr};
  /// Pending events for which is_live() holds.
  std::size_t live_events_{0};
  std::unique_ptr<power_budget> budget_;
  /// A waiting job: its trace row, its default-clock runtime estimate, and
  /// whether a defer() verdict has held it since it entered the queue (its
  /// start then attributes to cause::econ_deferred). The flag leaves the
  /// queue with its entry.
  struct queue_entry {
    std::size_t row{0};
    double est_runtime_s{0.0};
    bool econ_deferred{false};
  };
  /// A job holding GPUs. The running jobs are the only record of which GPUs
  /// are busy until when, and view_ indexes them per GPU. Nothing another
  /// record holds is copied here: the submission is the trace row, the
  /// start time and the pre-charged energy are in the row's result, and
  /// node_of() names the node from the inventory.
  struct running_job {
    /// Generation counter: a requeued job's stale completion event (which
    /// the engine cannot cancel) no longer matches and is ignored.
    std::uint64_t epoch{0};
    std::vector<gpu_slot> gpus;
    std::size_t row{0};      ///< trace row
    double est{0.0};         ///< default-clock runtime estimate (queue entry)
    double busy_until{0.0};  ///< modelled end; governor ticks move it
    double duration{0.0};
    double avg_power_w{0.0};  ///< per-GPU busy power (budget re-registration)
    obs::cause why{obs::cause::unattributed};  ///< attribution of this job's joules
    // --- reactive-governor state (null/zero on ungoverned jobs). Governed
    // jobs are not pre-charged: energy accrues segment by segment at each
    // tick, split into the seed-attributed and governor-attributed buckets.
    std::unique_ptr<governor::governor> gov;
    common::megahertz seed_clock{0.0};  ///< clock the planner/default seeded
    bool deviated{false};          ///< governor has left the seeded clock
    double seed_energy_j{0.0};     ///< accrued before the first deviation
    double gov_energy_j{0.0};      ///< accrued after it (cause::governor)
    double frac_done{0.0};         ///< fraction of the job's work completed
    double last_tick_s{0.0};       ///< start of the open accrual segment
    double cur_power_w{0.0};       ///< per-GPU watts at the current clock (drifted)
    double cur_base_power_w{0.0};  ///< same, pre-drift (model's belief)
    double cur_duration_full{0.0};  ///< whole-job seconds at the current clock
    double cur_util{0.0};          ///< modelled compute utilisation at it
    double target_w{0.0};          ///< hybrid watt target (predicted power)
  };
  /// The running incarnation `epoch` of trace row `row`, or
  /// run_.running.end() when it is no longer running (a stale event). A
  /// binary search: run_.running is in epoch order, because start() appends
  /// each new epoch, erasing keeps the order, and restore_checkpoint()
  /// rejects any other.
  std::vector<running_job>::iterator find_running(std::size_t row, std::uint64_t epoch);
  /// Name of the node of `rj`'s first GPU, where its joules are charged.
  [[nodiscard]] std::string node_of(const running_job& rj) const;
  /// Mark `rj`'s GPUs busy until rj.busy_until in view_ and register their
  /// draw with the budget. release() undoes both.
  void occupy(const running_job& rj);
  void release(const running_job& rj);
  /// Book `joules` of `rj`'s GPU energy to `why`: one ledger charge keyed by
  /// its node, the device, its job and its kernel, and, with econ on, one
  /// cost-meter charge priced now.
  void book(const running_job& rj, obs::cause why, double joules);
  /// Close `rj`'s open accrual segment at `now`: advance work fraction,
  /// book the segment's joules into the seed/governor bucket, and advance
  /// busy GPU-seconds.
  void accrue_governed(running_job& rj, double now);
  /// Everything run() starts afresh and a checkpoint carries. run() resets
  /// it with one assignment; restore_checkpoint() reads a payload into a
  /// local one, validates it, and installs it with one move. A new per-run
  /// field is a member here plus, when it must survive a resume, one line
  /// in checkpoint.cpp's layout. What is derived from it is not a member:
  /// restore rebuilds view_ and the budget's draw by occupying each running
  /// job.
  struct run_state {
    std::vector<queue_entry> queue{};
    std::vector<job_result> results{};
    std::vector<running_job> running{};
    /// The run's counters, accumulated in place. The power budget counts
    /// rebalances and demotions itself; `cap_*` hold the totals of budgets
    /// already replaced.
    run_summary summary{};
    double last_integrated_s{0.0};
    /// Virtual time of the newest accounting-relevant event. finish_run()
    /// closes integration and the final scrape here rather than at
    /// engine_.now(): a trailing (inert) checkpoint tick may outlive all
    /// live work, and the contract is byte-identical output with
    /// checkpointing on or off.
    double last_live_t{0.0};
    double busy_gpu_seconds{0.0};
    std::uint64_t next_epoch{0};
    std::uint64_t scrape_ticks{0};
    std::uint64_t ckpt_index{0};  ///< checkpoint files written so far
    std::uint64_t trace_crc{0};   ///< CRC-32 of the running trace's CSV form
    common::pcg32 fault_rng{0};
    common::pcg32 chaos_rng{0};
  };
  run_state run_;
  /// The per-GPU index of the running jobs, node for node with the
  /// inventory: occupy()/release() and governor ticks keep each GPU's
  /// busyness and busy_until current, and inventory changes add or drop one
  /// node_view. The scheduling passes hand it to the policy after
  /// make_view() stamps the free GPUs with the current time.
  cluster_view view_;
  /// GPUs whose view_ busy bit is set: occupy() and release(), which flip
  /// the bits, count them, and install_nodes() zeroes it. A drained node
  /// leaves with none set and a joining node brings none.
  std::size_t busy_gpus_{0};
  /// Every free GPU's busy_until is view_.now: release() and extend_view()
  /// clear it, make_view() sets it.
  bool view_stamped_{false};
  /// shadow_time()'s buffer, reused across passes: every GPU's busy_until.
  std::vector<double> shadow_avail_;
  std::vector<std::pair<double, double>> power_samples_;
  // --- observability (optional) ---
  /// Scrape tick: scrape() now, rescheduled while the run has live work.
  void scrape_tick();
  std::shared_ptr<obs::slo_watchdog> watchdog_;
  std::shared_ptr<guarded_planner> attribution_guard_;
  std::function<void(double)> scrape_hook_;
  // --- lifecycle recovery (optional) ---
  std::shared_ptr<guarded_planner> recovery_guard_;
  std::shared_ptr<lifecycle::lifecycle_manager> recovery_manager_;
  bool recovery_was_quarantined_{false};
  // --- facility economics (reset per run; restored across resume) ---
  /// Wake-up at the next price boundary while deferrable jobs wait: a
  /// single self-rescheduling tick (scrape pattern), so econ replays keep
  /// the engine's tie-break sequence deterministic.
  void econ_tick();
  econ::cost_meter econ_meter_;
  // --- checkpointing (configured once) ---
  checkpoint_options ckpt_;
  bool ckpt_enabled_{false};
  bool restored_{false};  ///< restore_checkpoint() succeeded; resume() legal
};

/// Tuning-table-backed plan resolver for `device`: compiled once from the
/// 23 registered suite kernels over the paper's ten objectives (oracle
/// planning, Sec. 8.3 ground truth); other (kernel, target) pairs fall
/// back to an on-the-fly oracle plan.
[[nodiscard]] plan_fn make_suite_planner(const std::string& device);

/// A suite resolver wired through the prediction guardrails: the trained
/// model set under `model_dir` is the first tier, the compiled oracle
/// table the second, default clocks the last. The guard is shared with the
/// returned plan_fn so callers can inspect fallback counters and the drift
/// quarantine — a quarantined model set makes every scheduling policy
/// built on `plan` follow the degradation automatically.
struct guarded_suite_planner {
  plan_fn plan;                              ///< resolver for scheduling policies
  std::shared_ptr<guarded_planner> guard;    ///< shared rail state
  /// Plan service fronting `guard`: generation-keyed decision cache (healthy
  /// tiers only — quarantined decisions flow through so probe cadence stays
  /// per-admission) and the batch resolution API.
  std::shared_ptr<plan_service> service;
  bool model_loaded{false};  ///< model tier active (structured load verified)
  std::string load_summary;  ///< per-file diagnostics when it is not
};

/// Build the guarded resolver for `device`, loading models from
/// `model_dir` via the crash-safe store. A missing or corrupt model set
/// never fails: the resolver degrades to the tuning-table tier and the
/// diagnostics land in `load_summary` (and the warning log).
[[nodiscard]] guarded_suite_planner make_guarded_suite_planner(
    const std::string& device, const std::filesystem::path& model_dir);

}  // namespace synergy::cluster

#include "synergy/cluster/simulator.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "synergy/common/checksum.hpp"
#include "synergy/common/csv.hpp"
#include "synergy/common/log.hpp"
#include "synergy/common/stats.hpp"
#include "synergy/common/table.hpp"
#include "synergy/guarded_planner.hpp"
#include "synergy/lifecycle/lifecycle_manager.hpp"
#include "synergy/model_store.hpp"
#include "synergy/obs/slo_watchdog.hpp"
#include "synergy/plan_service.hpp"
#include "synergy/sched/plugin.hpp"
#include "synergy/telemetry/telemetry.hpp"
#include "synergy/tuning_table.hpp"
#include "synergy/workloads/benchmark.hpp"

namespace synergy::cluster {

namespace tel = telemetry;

namespace {

constexpr double inf = std::numeric_limits<double>::infinity();

/// Why a job whose drifted draw at the lowest clock exceeds the cap fails.
constexpr const char* min_draw_reason = "power cap below the job's minimum draw";

/// The whole launch stream of a job as one gpusim profile: `iterations`
/// launches of `work_items` items fold into a single work size, which the
/// analytic model prices identically (time and energy are linear in items;
/// only per-launch overhead is approximated away).
gpusim::kernel_profile folded_profile(const traced_job& job) {
  const auto& info = workloads::find(job.kernel).info;
  gpusim::kernel_profile p;
  p.name = job.kernel;
  p.features = info.features;
  p.bytes_per_access = info.bytes_per_access;
  p.cache_hit_rate = info.cache_hit_rate;
  p.coalescing_efficiency = info.coalescing_efficiency;
  p.compute_efficiency = info.compute_efficiency;
  p.work_items = job.work_items * job.iterations;
  return p;
}

/// EASY shadow time over a view whose free GPUs carry `view.now`: when
/// `n_gpus` GPUs are free at the earliest. `avail` is a reused buffer.
double shadow_time(const cluster_view& view, int n_gpus, std::vector<double>& avail) {
  avail.clear();
  for (const auto& nv : view.nodes) avail.insert(avail.end(), nv.busy_until.begin(), nv.busy_until.end());
  if (static_cast<std::size_t>(n_gpus) > avail.size()) return inf;
  std::nth_element(avail.begin(), avail.begin() + (n_gpus - 1), avail.end());
  return avail[static_cast<std::size_t>(n_gpus) - 1];
}

/// Whether `gpus[k]` is the first of a gang's GPUs on its node: a gang
/// counts once on every node it spans.
bool first_on_its_node(const std::vector<gpu_slot>& gpus, std::size_t k) {
  return std::none_of(gpus.begin(), gpus.begin() + static_cast<std::ptrdiff_t>(k),
                      [&](const gpu_slot& s) { return s.node == gpus[k].node; });
}

}  // namespace

double drift_plan::factor(double core_mhz, double default_core_mhz) const {
  double f = power_skew;
  if (freq_exponent != 0.0 && default_core_mhz > 0.0 && core_mhz > 0.0)
    f *= std::pow(core_mhz / default_core_mhz, freq_exponent);
  return f;
}

double simulator::drift_factor_now(double core_mhz) const {
  if (config_.drift.enabled() && engine_.now() >= config_.drift.at_s)
    return config_.drift.factor(core_mhz, spec_.default_config().core.value);
  return 1.0;
}

simulator::simulator(cluster_config config, std::unique_ptr<scheduling_policy> policy)
    : config_(std::move(config)),
      policy_(std::move(policy)),
      spec_(gpusim::make_device_spec(config_.device)) {
  if (config_.n_nodes == 0 || config_.gpus_per_node == 0)
    throw std::invalid_argument("simulator: cluster needs nodes and GPUs");
  if (!policy_) throw std::invalid_argument("simulator: null scheduling policy");
  if (config_.governor.enabled) {
    // Fail fast on a bad spec instead of discovering it at the first
    // placement mid-run.
    auto probe = governor::make_governor(config_.governor.spec, spec_);
    if (!probe.has_value())
      throw std::invalid_argument("simulator: " + probe.err().message);
  }
  install_nodes(configured_nodes());
}

sched::node_config simulator::make_node_config(const std::string& name) const {
  sched::node_config cfg;
  cfg.name = name;
  cfg.gpus.assign(config_.gpus_per_node, config_.device);
  cfg.host_power_w = config_.host_power_w;
  if (config_.tag_nvgpufreq) cfg.gres.insert(sched::nvgpufreq_plugin::gres_tag);
  return cfg;
}

std::string simulator::node_name(std::size_t ordinal) {
  char name[24];
  std::snprintf(name, sizeof name, "cn%03zu", ordinal);
  return name;
}

std::size_t simulator::node_ordinal(std::string_view name) {
  std::size_t k = 0;
  const char* end = name.data() + name.size();
  if (!name.starts_with("cn") ||
      std::from_chars(name.data() + 2, end, k).ptr != end || node_name(k) != name)
    return std::string_view::npos;
  return k;
}

void simulator::install_nodes(const std::vector<std::string>& names) {
  std::vector<sched::node_config> nodes;
  nodes.reserve(names.size());
  for (const auto& name : names) nodes.push_back(make_node_config(name));
  ctl_ = std::make_unique<sched::controller>(std::move(nodes));
  budget_ = std::make_unique<power_budget>(*ctl_, config_.facility_cap_w);
  view_.nodes.clear();
  busy_gpus_ = 0;
  extend_view();
}

std::vector<std::string> simulator::configured_nodes() const {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < config_.n_nodes; ++i) names.push_back(node_name(i));
  return names;
}

simulator::~simulator() = default;

std::vector<simulator::running_job>::iterator simulator::find_running(std::size_t row,
                                                                     std::uint64_t epoch) {
  const auto it = std::lower_bound(
      run_.running.begin(), run_.running.end(), epoch,
      [](const running_job& rj, std::uint64_t e) { return rj.epoch < e; });
  if (it == run_.running.end() || it->epoch != epoch || it->row != row)
    return run_.running.end();
  return it;
}

const std::string& simulator::node_of(const running_job& rj) const {
  return ctl_->node_at(rj.gpus.front().node).name();
}

void simulator::occupy(const running_job& rj) {
  for (std::size_t k = 0; k < rj.gpus.size(); ++k) {
    const gpu_slot s = rj.gpus[k];
    auto& nv = view_.nodes[s.node];
    if (!nv.gpu_busy[s.gpu]) ++busy_gpus_;
    nv.gpu_busy[s.gpu] = true;
    nv.busy_until[s.gpu] = rj.busy_until;
    budget_->gpu_busy(s.node, s.gpu, rj.avg_power_w);
    if (first_on_its_node(rj.gpus, k)) ctl_->node_at(s.node).add_job();
  }
}

void simulator::release(const running_job& rj) {
  // The freed GPUs still carry the job's busy_until, not the current time.
  view_stamped_ = false;
  for (std::size_t k = 0; k < rj.gpus.size(); ++k) {
    const gpu_slot s = rj.gpus[k];
    auto& nv = view_.nodes[s.node];
    if (nv.gpu_busy[s.gpu]) --busy_gpus_;
    nv.gpu_busy[s.gpu] = false;
    budget_->gpu_idle(s.node, s.gpu);
    if (first_on_its_node(rj.gpus, k)) ctl_->node_at(s.node).remove_job();
  }
}

void simulator::make_view() {
  // The busy GPUs are current already; only a free GPU's busy_until (the
  // time it is free from) moves with the clock. occupy() only turns free
  // GPUs busy, so after a stamp at this instant only a release() or a new
  // node can leave a free GPU without it.
  const double now = engine_.now();
  if (view_stamped_ && now == view_.now) return;
  view_.now = now;
  for (auto& nv : view_.nodes)
    for (std::size_t g = 0; g < nv.gpu_busy.size(); ++g)
      if (!nv.gpu_busy[g]) nv.busy_until[g] = now;
  view_stamped_ = true;
}

void simulator::extend_view() {
  view_stamped_ = false;
  for (std::size_t i = view_.nodes.size(); i < ctl_->node_count(); ++i) {
    const auto& n = ctl_->node_at(i);
    const std::size_t gpus = n.config().gpus.size();
    // The Sec. 7.2 prologue chain, evaluated for this simulated node: the
    // controller is reachable (we are it), jobs own their GPUs exclusively
    // by construction, so capability reduces to the node-side checks.
    view_.nodes.push_back(
        {n.has_gres(sched::nvgpufreq_plugin::gres_tag) && n.config().nvml_available,
         std::vector<bool>(gpus, false), std::vector<double>(gpus, 0.0)});
  }
}

simulator::priced_run simulator::price(const gpusim::kernel_profile& folded,
                                       const common::frequency_config& at) const {
  auto cost = model_.evaluate(spec_, folded, at);
  // The fleet's boards may have drifted: their draw picks up the skew at
  // this clock, which the trained models know nothing about. Undrifted, the
  // factor is exactly 1 and evaluate() derived the energy the same way, so
  // the cost keeps its bits.
  const double model_w = cost.avg_power.value;
  cost.avg_power = common::watts{model_w * drift_factor_now(at.core.value)};
  cost.energy = cost.avg_power * cost.time;
  return {cost, model_w};
}

bool simulator::admit(const traced_job& job, common::frequency_config& config,
                      bool& demoted) const {
  demoted = false;
  if (!budget_->capped()) return true;
  const auto folded = folded_profile(job);
  const auto& clocks = spec_.core_clocks;
  const auto ci = static_cast<std::ptrdiff_t>(spec_.nearest_core_clock_index(config.core));
  const double headroom = budget_->headroom_w();
  for (std::ptrdiff_t i = ci; i >= 0; --i) {
    const auto clock = clocks[static_cast<std::size_t>(i)];
    // Priced as start() registers it with the budget: drifted.
    const double added =
        job.n_gpus * (price(folded, {config.memory, clock}).cost.avg_power.value -
                      spec_.idle_power_w);
    if (added <= headroom + 1e-9) {
      demoted = (i != ci);
      config.core = clock;
      return true;
    }
  }
  return false;
}

bool simulator::above_cap_when_idle(const traced_job& job) const {
  const auto cost =
      price(folded_profile(job), {spec_.default_config().memory, spec_.min_core_clock()}).cost;
  const double idle_facility =
      static_cast<double>(ctl_->node_count()) *
      (config_.host_power_w + static_cast<double>(config_.gpus_per_node) * spec_.idle_power_w);
  const double min_draw =
      idle_facility + job.n_gpus * (cost.avg_power.value - spec_.idle_power_w);
  return min_draw > budget_->cap_w();
}

void simulator::integrate_to(double t) {
  if (t > run_.last_integrated_s) {
    const double w = budget_->facility_power_w();
    run_.summary.facility_energy_j += w * (t - run_.last_integrated_s);
    // The cost integrator walks the same power signal over the same spans,
    // so facility cost is exactly the price-weighted facility energy.
    if (econ_meter_.active()) econ_meter_.integrate(w, run_.last_integrated_s, t);
    run_.last_integrated_s = t;
  }
}

void simulator::sample_power() {
  const double w = budget_->facility_power_w();
  run_.summary.peak_facility_power_w = std::max(run_.summary.peak_facility_power_w, w);
  power_samples_.emplace_back(engine_.now(), w);
}

void simulator::schedule(double t, event_kind kind, std::int64_t id, std::uint64_t epoch) {
  if (is_live(kind)) ++live_events_;
  engine_.at(t, sim_event{kind, id, epoch});
}

void simulator::dispatch(const sim_event& e) {
  if (is_live(e.kind)) {
    --live_events_;
    run_.last_live_t = engine_.now();
  }
  switch (e.kind) {
    case event_kind::arrival: arrive(static_cast<std::size_t>(e.id)); break;
    case event_kind::completion: complete(static_cast<std::size_t>(e.id), e.epoch); break;
    case event_kind::governor_tick: governor_tick(static_cast<std::size_t>(e.id), e.epoch); break;
    case event_kind::device_lost: device_lost(static_cast<std::size_t>(e.id)); break;
    case event_kind::node_crash: node_crash(); break;
    case event_kind::node_restart: node_restart(static_cast<std::size_t>(e.id)); break;
    case event_kind::scrape: scrape_tick(); break;
    case event_kind::econ: econ_tick(); break;
    case event_kind::checkpoint: checkpoint_tick(); break;
    case event_kind::crash_injection:
      // Crash-injection harness: die hard, skipping destructors and atexit,
      // exactly like an OOM-kill would — whatever the last checkpoint
      // captured is all a resume gets.
      std::fflush(nullptr);
      std::_Exit(crash_injection_exit_code);
  }
}

void simulator::arrive(std::size_t row) {
  const traced_job& job = trace_->jobs[row];
  integrate_to(engine_.now());
  SYNERGY_COUNTER_ADD("cluster.arrivals", 1);
  SYNERGY_INSTANT(tel::category::sched, "cluster.arrival",
                  {"id", static_cast<double>(job.id)},
                  {"n_gpus", static_cast<double>(job.n_gpus)});

  if (static_cast<std::size_t>(job.n_gpus) > gpu_count()) {
    fail(row, "requests more GPUs than the cluster has");
  } else if (budget_->capped() && above_cap_when_idle(job)) {
    // It can never be admitted: fail it now instead of starving the queue.
    fail(row, min_draw_reason);
  } else {
    run_.queue.push_back({row, price(folded_profile(job), spec_.default_config()).cost.time.value});
    try_schedule();
  }
  sample_power();
}

void simulator::fail(std::size_t row, const char* reason) {
  auto& r = run_.results[row];
  r.state = sched::job_state::failed;
  r.failure_reason = reason;
  SYNERGY_COUNTER_ADD("cluster.jobs_failed", 1);
}

void simulator::start(std::size_t queue_index, const placement& pl) {
  // Idempotent for every existing caller (they integrated at this instant
  // already); load-bearing for the econ tick, whose inert firings must not
  // move the accounting clock but whose job starts must close the facility
  // integral before the budget registers new draw.
  run_.last_live_t = engine_.now();
  integrate_to(engine_.now());
  const queue_entry qe = run_.queue[queue_index];
  run_.queue.erase(run_.queue.begin() + static_cast<std::ptrdiff_t>(queue_index));
  const traced_job& job = trace_->jobs[qe.row];
  const double now = engine_.now();

  auto& r = run_.results[qe.row];
  r.state = sched::job_state::running;
  r.start_s = now;
  r.queue_wait_s = now - job.submit_s;
  auto config = pl.config.value_or(spec_.default_config());

  // Fault rolls happen in fixed order and count per placement, so a given
  // plan seed yields the same pattern on every replay of the same trace.
  const bool faults_on = config_.faults.enabled();
  bool lose_device_here = false;
  double lose_at_frac = 0.0;
  if (faults_on) {
    const double u_clock = run_.fault_rng.uniform();
    const double u_lost = run_.fault_rng.uniform();
    lose_at_frac = 0.1 + 0.8 * run_.fault_rng.uniform();
    if (u_clock < config_.faults.clock_set_fail_rate &&
        !(config == spec_.default_config())) {
      // Persistent clock-set failure: the node prologue retried and gave
      // up; the job runs at default clocks and its sample is degraded.
      config = spec_.default_config();
      r.clock_set_failed = true;
      ++run_.summary.clock_set_faults;
      SYNERGY_COUNTER_ADD("cluster.clock_set_faults", 1);
    }
    lose_device_here = u_lost < config_.faults.device_lost_rate &&
                       run_.summary.nodes_lost < config_.faults.max_node_losses &&
                       ctl_->node_count() > 1;
  }
  r.core_mhz = config.core.value;

  // Attribute the job's joules to the decision that priced its clocks. The
  // cause travels with the placement (the plan service reported the tier
  // with the decision itself), so attribution no longer reads mutable
  // planner state after the fact. Overrides, strongest last: a cap demotion
  // re-priced the clocks, and a clock-set fault means the job actually ran
  // at fallback clocks.
  obs::cause why = pl.config ? pl.plan_cause : obs::cause::default_clocks;
  // A job that waited out a pricey window carries the deferral tag unless
  // the price-demotion rule already re-priced this placement.
  if (qe.econ_deferred && why != obs::cause::econ_price_demoted) why = obs::cause::econ_deferred;
  if (r.demoted) why = obs::cause::cap_demoted;
  if (r.clock_set_failed) why = obs::cause::fault_degraded;
  if (watchdog_) watchdog_->observe_plan(why == obs::cause::model);

  const auto priced = price(folded_profile(job), config);
  const auto& cost = priced.cost;
  const double duration = cost.time.value;
  // A clock-set fault pins the job to default clocks — broken clock-set
  // plumbing takes the governor down with it. Governed jobs are not
  // pre-charged: joules and busy-seconds accrue per tick segment.
  const bool governed =
      config_.governor.enabled && config_.tag_nvgpufreq && !r.clock_set_failed;
  r.gpu_energy_j = governed ? 0.0 : cost.energy.value * job.n_gpus;
  if (!governed) run_.busy_gpu_seconds += duration * job.n_gpus;

  const std::uint64_t epoch = run_.next_epoch++;
  running_job rj;
  rj.epoch = epoch;
  rj.gpus = pl.gpus;
  rj.row = qe.row;
  rj.est = qe.est_runtime_s;
  rj.busy_until = now + duration;
  rj.duration = duration;
  rj.avg_power_w = cost.avg_power.value;
  rj.why = why;
  if (governed) {
    rj.gov = std::move(governor::make_governor(config_.governor.spec, spec_)).value();
    rj.gov->seed(config.core);
    // Under a facility cap the admitted clock is the ceiling: the governor
    // may save energy below it but must not undo the cap demotion.
    if (budget_->capped()) rj.gov->set_rails(spec_.min_core_clock(), config.core);
    rj.seed_clock = rj.gov->current();
    rj.last_tick_s = now;
    rj.cur_base_power_w = priced.model_power_w;
    rj.cur_power_w = cost.avg_power.value;
    rj.cur_duration_full = duration;
    rj.cur_util = cost.compute_utilization;
    // The hybrid governor's watt target is the model's belief. Drift-free
    // boards match it (the tracker holds the seeded clock); drifted boards
    // overshoot it (the tracker chases the true optimum down) — the gap the
    // drift monitor measures.
    if (config_.governor.spec.hybrid) rj.target_w = priced.model_power_w;
  }
  occupy(rj);
  run_.running.push_back(std::move(rj));

  SYNERGY_COUNTER_ADD("cluster.placements", 1);
  SYNERGY_HISTOGRAM_OBSERVE("cluster.queue_wait_s", r.queue_wait_s, 0.0, 1.0, 10.0, 60.0,
                            300.0, 1800.0);
  SYNERGY_INSTANT(tel::category::sched, "cluster.placement",
                  {"id", static_cast<double>(job.id)},
                  {"n_gpus", static_cast<double>(job.n_gpus)},
                  {"core_mhz", r.core_mhz}, {"wait_s", r.queue_wait_s});

  budget_->rebalance();
  const double tick = std::max(1e-3, config_.governor.tick_interval_s);
  const auto id = static_cast<std::int64_t>(qe.row);
  if (governed && duration > tick)
    schedule(now + tick, event_kind::governor_tick, id, epoch);
  else
    schedule(now + duration, event_kind::completion, id, epoch);
  if (lose_device_here) {
    // The board dies partway through this job. Nodes are addressed by
    // ordinal because indices shift when earlier losses remove nodes.
    const auto victim = node_ordinal(node_of(run_.running.back()));
    schedule(now + duration * lose_at_frac, event_kind::device_lost,
             static_cast<std::int64_t>(victim));
  }
}

void simulator::complete(std::size_t row, std::uint64_t epoch) {
  const auto it = find_running(row, epoch);
  // Stale completion: the job was requeued by a device-lost/node-crash event
  // after this event was scheduled (the engine cannot cancel). Ignore it —
  // the restarted incarnation carries a fresh epoch. The check runs before
  // any accounting so a stale event is a pure no-op: checkpoints then do not
  // need to carry stale events, and resumed runs integrate the facility
  // energy over the same spans as uninterrupted ones.
  if (it == run_.running.end()) return;
  run_.last_live_t = engine_.now();
  integrate_to(engine_.now());
  running_job rj = std::move(*it);
  run_.running.erase(it);
  release(rj);

  const traced_job& job = trace_->jobs[row];
  auto& r = run_.results[row];
  double governor_j = 0.0;
  if (rj.gov) {
    // Close the final accrual segment and settle the job's energy from the
    // per-segment buckets (governed jobs were never pre-charged).
    accrue_governed(rj, engine_.now());
    r.gpu_energy_j = rj.seed_energy_j + rj.gov_energy_j;
    r.core_mhz = rj.gov->current().value;
    governor_j = rj.gov_energy_j;
  }
  r.state = sched::job_state::completed;
  r.end_s = engine_.now();
  if (config_.faults.enabled() &&
      run_.fault_rng.uniform() < config_.faults.power_read_dropout_rate) {
    // The end-of-job power read dropped out: the energy figure comes from
    // the model with no sensor corroboration. Keep it, but flag it.
    r.energy_degraded = true;
    ++run_.summary.degraded_samples;
    SYNERGY_COUNTER_ADD("cluster.degraded_samples", 1);
  }
  SYNERGY_COUNTER_ADD("cluster.jobs_completed", 1);
  SYNERGY_GAUGE_ADD("cluster.gpu_energy_j", r.gpu_energy_j);
  // Ledger conservation contract: every completed job books its full GPU
  // energy here; the partials of requeued jobs book in drain_node(). Ledger
  // total == busy GPU energy + wasted energy. Governed jobs split the
  // booking: joules accrued before the governor first left the seeded clock
  // stay with the tier that seeded it, everything after is the governor's.
  book(rj, rj.why, r.gpu_energy_j - governor_j);
  if (governor_j > 0.0) book(rj, obs::cause::governor, governor_j);
  if (watchdog_) watchdog_->observe_job(r.gpu_energy_j / job.n_gpus);
  if (econ_meter_.active()) {
    econ_meter_.complete_job();
    if (watchdog_) {
      const double now_s = engine_.now();
      const double kwh_per_gpu = r.gpu_energy_j / job.n_gpus / econ::joules_per_kwh;
      watchdog_->observe_job_cost(kwh_per_gpu * econ_meter_.price_at(now_s),
                                  kwh_per_gpu * econ_meter_.carbon_at(now_s));
    }
  }
#if SYNERGY_TELEMETRY_ENABLED
  // Job lifetime on the cluster timeline (pid 3, virtual seconds).
  if (tel::enabled())
    tel::trace_recorder::instance().complete(
        tel::category::sched, job.name, r.start_s * 1e6, (r.end_s - r.start_s) * 1e6,
        tel::trace_event::cluster_pid,
        {{"gpu_energy_j", r.gpu_energy_j},
         {"core_mhz", r.core_mhz},
         {"n_gpus", static_cast<double>(job.n_gpus)},
         {"wait_s", r.queue_wait_s}});
#endif

  if (recovery_guard_ && recovery_manager_ && !r.clock_set_failed && !r.energy_degraded) {
    // Degradation contract: only trusted samples feed the lifecycle. Job
    // size cancels out of the comparison by normalising to per-item,
    // per-GPU energy — jobs of one kernel differ in iterations and gang
    // size, and the models predict per-item metrics.
    const double items = job.work_items * job.iterations;
    const double energy_per_item = items > 0.0 ? r.gpu_energy_j / job.n_gpus / items : 0.0;
    const auto& features = workloads::find(job.kernel).info.features;
    const common::megahertz core{r.core_mhz};
    recovery_guard_->observe(job.kernel, features, core, energy_per_item);
    recovery_manager_->record(
        {job.kernel, features, {spec_.default_config().memory, core}, energy_per_item});
    const bool quarantined = recovery_guard_->quarantined();
    if (quarantined && !recovery_was_quarantined_) {
      ++run_.summary.quarantines;
      recovery_was_quarantined_ = true;
      SYNERGY_COUNTER_ADD("cluster.model_quarantines", 1);
      SYNERGY_INSTANT(tel::category::sched, "cluster.model_quarantine",
                      {"t_s", engine_.now()});
    }
    const auto action = recovery_manager_->step(quarantined, engine_.now());
    if (action == lifecycle::lifecycle_action::promoted ||
        action == lifecycle::lifecycle_action::rolled_back) {
      // Champion moved: install it into the shared guard. install() resets
      // the drift monitor, so the quarantine lifts and the scheduling
      // policy resumes model-tier planning from the next placement on.
      recovery_guard_->install(recovery_manager_->registry()->current_planner());
      recovery_was_quarantined_ = false;
      if (action == lifecycle::lifecycle_action::promoted) {
        ++run_.summary.promotions;
        SYNERGY_COUNTER_ADD("cluster.model_promotions", 1);
      } else {
        ++run_.summary.rollbacks;
        SYNERGY_COUNTER_ADD("cluster.model_rollbacks", 1);
      }
      SYNERGY_INSTANT(tel::category::sched, "cluster.model_recovery",
                      {"t_s", engine_.now()},
                      {"promoted", action == lifecycle::lifecycle_action::promoted ? 1.0 : 0.0});
    }
  }

  if (watchdog_) {
    const guarded_planner* g =
        attribution_guard_ ? attribution_guard_.get() : recovery_guard_.get();
    if (g) watchdog_->observe_quarantine(engine_.now(), g->quarantined());
  }

  budget_->rebalance();
  try_schedule();
  sample_power();
}

void simulator::book([[maybe_unused]] const running_job& rj, obs::cause why, double joules) {
  SYNERGY_OBS_CHARGE((obs::charge_key{node_of(rj), config_.device, trace_->jobs[rj.row].name,
                                      trace_->jobs[rj.row].kernel}),
                     why, joules);
  // Econ accounting works with the telemetry plane compiled out, so it is
  // not behind the SYNERGY_OBS_CHARGE macro.
  if (econ_meter_.active()) econ_meter_.charge(why, joules, engine_.now());
}

void simulator::accrue_governed(running_job& rj, double now) {
  const double elapsed = now - rj.last_tick_s;
  if (elapsed <= 0.0) return;
  if (rj.cur_duration_full > 0.0)
    rj.frac_done = std::min(1.0, rj.frac_done + elapsed / rj.cur_duration_full);
  const int n_gpus = trace_->jobs[rj.row].n_gpus;
  const double joules = rj.cur_power_w * elapsed * n_gpus;
  if (rj.deviated)
    rj.gov_energy_j += joules;
  else
    rj.seed_energy_j += joules;
  run_.busy_gpu_seconds += elapsed * n_gpus;
  rj.last_tick_s = now;
}

void simulator::governor_tick(std::size_t row, std::uint64_t epoch) {
  const auto it = find_running(row, epoch);
  // Stale tick: the job was requeued by a device-lost event after this tick
  // was scheduled; the restarted incarnation runs under a fresh epoch.
  if (it == run_.running.end() || !it->gov) return;
  run_.last_live_t = engine_.now();
  integrate_to(engine_.now());
  running_job& rj = *it;
  const double now = engine_.now();
  accrue_governed(rj, now);
  ++run_.summary.governor_ticks;
  SYNERGY_COUNTER_ADD("cluster.governor_ticks", 1);

  // Drift may have switched on since the segment opened: refresh observed
  // power at the current clock before the governor looks at it.
  rj.cur_power_w = rj.cur_base_power_w * drift_factor_now(rj.gov->current().value);

  const governor::device_sample sample{now, rj.cur_util, rj.cur_power_w, rj.target_w};
  const auto before = rj.gov->current();
  const auto decided = rj.gov->decide(sample);
  if (decided.value != before.value) {
    ++run_.summary.governor_clock_changes;
    SYNERGY_COUNTER_ADD("cluster.governor_clock_changes", 1);
    // Re-price the rest of the job at the new clock. Work completed so far
    // is banked in frac_done; only the remaining fraction runs at the new
    // speed and draw.
    const auto p =
        price(folded_profile(trace_->jobs[row]), {spec_.default_config().memory, decided});
    rj.cur_base_power_w = p.model_power_w;
    rj.cur_power_w = p.cost.avg_power.value;
    rj.cur_duration_full = p.cost.time.value;
    rj.cur_util = p.cost.compute_utilization;
    rj.avg_power_w = rj.cur_power_w;  // budget re-registration on node loss
    if (decided.value != rj.seed_clock.value) rj.deviated = true;
    run_.results[row].core_mhz = decided.value;
    for (const auto& s : rj.gpus) budget_->gpu_busy(s.node, s.gpu, rj.cur_power_w);
    budget_->rebalance();
  }

  const double remaining =
      rj.cur_duration_full > 0.0 ? (1.0 - rj.frac_done) * rj.cur_duration_full : 0.0;
  rj.busy_until = now + remaining;
  for (const auto& s : rj.gpus) view_.nodes[s.node].busy_until[s.gpu] = rj.busy_until;
  const double tick = std::max(1e-3, config_.governor.tick_interval_s);
  const auto id = static_cast<std::int64_t>(row);
  if (remaining <= tick + 1e-9)
    schedule(now + std::max(0.0, remaining), event_kind::completion, id, epoch);
  else
    schedule(now + tick, event_kind::governor_tick, id, epoch);
  sample_power();
}

std::size_t simulator::drain_node(std::size_t ni) {
  // Every job with a GPU on the dying node is preempted and requeued — jobs
  // are never lost. Its partial execution is refunded from the pre-charged
  // accounting and booked as wasted work instead. The victims move out in
  // epoch order, and the survivors keep theirs.
  const auto survivors_end = std::stable_partition(
      run_.running.begin(), run_.running.end(), [ni](const running_job& rj) {
        return std::none_of(rj.gpus.begin(), rj.gpus.end(),
                            [ni](const gpu_slot& s) { return s.node == ni; });
      });
  std::vector<running_job> victims(std::make_move_iterator(survivors_end),
                                   std::make_move_iterator(run_.running.end()));
  run_.running.erase(survivors_end, run_.running.end());
  const double now = engine_.now();
  for (auto& rj : victims) {
    release(rj);
    const traced_job& job = trace_->jobs[rj.row];
    auto& r = run_.results[rj.row];
    const double elapsed = std::max(0.0, now - r.start_s);
    double wasted = 0.0;
    if (rj.gov) {
      // Governed jobs accrued joules and busy-seconds per segment: close
      // the open segment, then everything accrued so far is wasted. Any
      // still-pending governor tick goes stale with the epoch.
      accrue_governed(rj, now);
      wasted = rj.seed_energy_j + rj.gov_energy_j;
    } else {
      const double done = rj.duration > 0.0 ? std::min(1.0, elapsed / rj.duration) : 1.0;
      run_.busy_gpu_seconds -= (rj.duration - elapsed) * job.n_gpus;
      wasted = r.gpu_energy_j * done;
    }
    run_.summary.wasted_gpu_energy_j += wasted;
    // The partial execution's joules were spent and bought nothing: book
    // them as fault-wasted so the watchdog's wasted_energy_j rule sees the
    // incident on the next scrape.
    book(rj, obs::cause::fault_wasted, wasted);
    r.gpu_energy_j = 0.0;
    r.state = sched::job_state::pending;
    r.start_s = -1.0;
    r.core_mhz = 0.0;
    ++r.requeues;
    ++run_.summary.requeues;
    SYNERGY_COUNTER_ADD("cluster.requeues", 1);
    SYNERGY_INSTANT(tel::category::sched, "cluster.requeue",
                    {"id", static_cast<double>(job.id)},
                    {"node", static_cast<double>(ni)});
    run_.queue.push_back({rj.row, rj.est});
  }
  return victims.size();
}

void simulator::rebuild_budget() {
  // The budget is sized to the inventory, so node removal/re-admission
  // rebuilds it from scratch; counters fold into the summary so run totals
  // survive the swap, and running jobs re-register their demand.
  run_.summary.cap_rebalances += budget_->rebalances();
  run_.summary.cap_demotions += budget_->demotions();
  budget_ = std::make_unique<power_budget>(*ctl_, config_.facility_cap_w);
  for (const auto& rj : run_.running)
    for (const auto& s : rj.gpus) budget_->gpu_busy(s.node, s.gpu, rj.avg_power_w);
}

void simulator::lose_node(std::size_t ni, const std::function<void(std::size_t)>& record) {
  integrate_to(engine_.now());
  const std::size_t requeued = drain_node(ni);
  // Drained of jobs, the node leaves the inventory through the controller's
  // normal removal path; the view and the running jobs' GPU indices shift
  // down with it. `record` runs before the scheduling pass, so a restart it
  // schedules ranks ahead of any completion the pass schedules.
  if (ctl_->remove_node(ctl_->node_at(ni).name())) {
    view_.nodes.erase(view_.nodes.begin() + static_cast<std::ptrdiff_t>(ni));
    for (auto& rj : run_.running)
      for (auto& s : rj.gpus)
        if (s.node > ni) --s.node;
    rebuild_budget();
    record(requeued);
  }
  budget_->rebalance();
  try_schedule();
  sample_power();
}

void simulator::device_lost(std::size_t ordinal) {
  // Earlier losses shift indices, so the event names its node by ordinal. A
  // node no longer in the inventory is lost already (double event).
  std::size_t ni = 0;
  while (ni < ctl_->node_count() && node_ordinal(ctl_->node_at(ni).name()) != ordinal) ++ni;
  if (ni >= ctl_->node_count() || ctl_->node_count() <= 1 ||
      run_.summary.nodes_lost >= config_.faults.max_node_losses)
    return;
  lose_node(ni, [&]([[maybe_unused]] std::size_t requeued) {
    ++run_.summary.nodes_lost;
    SYNERGY_COUNTER_ADD("cluster.nodes_lost", 1);
    SYNERGY_INSTANT(tel::category::sched, "cluster.device_lost",
                    {"node", static_cast<double>(ni)},
                    {"requeued", static_cast<double>(requeued)});
  });
}

void simulator::node_crash() {
  // At least one node always survives; a skipped crash consumes no RNG so
  // the victim stream stays aligned across replays regardless of timing.
  if (ctl_->node_count() <= 1) return;
  const auto ni = static_cast<std::size_t>(
      run_.chaos_rng.bounded(static_cast<std::uint32_t>(ctl_->node_count())));
  const std::size_t ordinal = node_ordinal(ctl_->node_at(ni).name());
  lose_node(ni, [&]([[maybe_unused]] std::size_t requeued) {
    ++run_.summary.node_crashes;
    SYNERGY_COUNTER_ADD("cluster.node_crashes", 1);
    SYNERGY_INSTANT(tel::category::sched, "cluster.node_crash",
                    {"node", static_cast<double>(ni)},
                    {"requeued", static_cast<double>(requeued)});
    if (config_.chaos.restart_delay_s > 0.0)
      schedule(engine_.now() + config_.chaos.restart_delay_s, event_kind::node_restart,
               static_cast<std::int64_t>(ordinal));
  });
}

void simulator::node_restart(std::size_t ordinal) {
  integrate_to(engine_.now());

  // Warm restart: the node returns with fresh idle slots (whatever ran there
  // was requeued at crash time), is appended to the inventory — append never
  // shifts existing indices — and the budget re-spreads over the grown
  // fleet before an immediate scheduling pass picks up deferred work.
  ctl_->add_node(make_node_config(node_name(ordinal)));
  extend_view();
  rebuild_budget();
  ++run_.summary.node_restarts;
  SYNERGY_COUNTER_ADD("cluster.node_restarts", 1);
  SYNERGY_INSTANT(tel::category::sched, "cluster.node_restart",
                  {"node", static_cast<double>(ctl_->node_count() - 1)});

  budget_->rebalance();
  try_schedule();
  sample_power();
}

bool simulator::try_schedule() {
  const bool backfills = policy_->backfills();
  bool progressed = true;
  bool deferred = false;
  while (progressed && !run_.queue.empty()) {
    progressed = false;
    deferred = false;
    // Nothing the pass looks at changes until it starts a job, so the view,
    // its free GPUs and the head's EASY reservation are priced once per pass.
    const std::size_t free_gpus = gpu_count() - busy_gpus_;
    // Every job needs a GPU, so with none free the pass skips each one
    // before place(); only defer(), asked while the econ meter runs, could
    // see it.
    if (free_gpus == 0 && !econ_meter_.active()) break;
    make_view();
    cluster_view& view = view_;
    view.head_reservation_s = inf;  // until the first backfill candidate
    for (std::size_t i = 0; i < run_.queue.size(); ++i) {
      if (i > 0 && !backfills) break;
      view.is_head = (i == 0);
      if (i == 1) {
        // A head that fits the free GPUs did not start (deferred, cap-blocked
        // or refused): its shadow time is now, since at least that many GPUs
        // carry now and no busy GPU is busy until before now.
        const int head_gpus = trace_->jobs[run_.queue[0].row].n_gpus;
        view.head_reservation_s = static_cast<std::size_t>(head_gpus) <= free_gpus
                                      ? view.now
                                      : shadow_time(view, head_gpus, shadow_avail_);
      }
      queue_entry& qe = run_.queue[i];
      const queued_job qj{trace_->jobs[qe.row], qe.est_runtime_s};
      if (econ_meter_.active() && policy_->defer(qj, view)) {
        // The policy holds this job for a cheaper window; the econ tick
        // re-runs this scan at the next price boundary. Counted per
        // deferral episode (a requeued job may defer again).
        if (!qe.econ_deferred) {
          qe.econ_deferred = true;
          ++run_.summary.econ_jobs_deferred;
          SYNERGY_COUNTER_ADD("cluster.econ_deferrals", 1);
        }
        deferred = true;
        continue;
      }
      // place()'s precondition: the job fits the view's free GPUs.
      if (static_cast<std::size_t>(qj.job.n_gpus) > free_gpus) continue;
      auto pl = policy_->place(qj, view);
      if (!pl) continue;
      auto config = pl->config.value_or(spec_.default_config());
      // Price-threshold clock demotion: while the spot price sits above
      // demote_price_ratio x mean, every placement steps one entry down the
      // clock table before the cap has its say (the cap may demote further,
      // and its attribution still wins).
      bool price_demoted = false;
      if (econ_meter_.active() && config_.econ.demote_price_ratio > 0.0 &&
          econ_meter_.price_at(view.now) >
              config_.econ.demote_price_ratio * econ_meter_.mean_price()) {
        if (const std::size_t ci = spec_.nearest_core_clock_index(config.core); ci > 0) {
          config.core = spec_.core_clocks[ci - 1];
          price_demoted = true;
        }
      }
      bool demoted = false;
      if (!admit(qj.job, config, demoted)) {
        // Drift that set in after the job arrived can lift its floor above
        // the cap. Fail it as arrive() would have, or it blocks the queue.
        if (!above_cap_when_idle(qj.job)) continue;  // defer under the cap
        fail(qe.row, min_draw_reason);
        run_.queue.erase(run_.queue.begin() + static_cast<std::ptrdiff_t>(i));
        progressed = true;
        break;  // the head may have changed: refill the view and restart
      }
      if (demoted) {
        budget_->count_demotion();
        SYNERGY_COUNTER_ADD("cluster.cap_demotions", 1);
        run_.results[qe.row].demoted = true;
      }
      if (price_demoted) {
        pl->plan_cause = obs::cause::econ_price_demoted;
        ++run_.summary.econ_price_demotions;
        SYNERGY_COUNTER_ADD("cluster.econ_price_demotions", 1);
      }
      pl->config = config;
      start(i, *pl);
      progressed = true;
      break;  // occupancy changed: refill the view and restart the scan
    }
  }
  return deferred;
}

run_summary simulator::run(const job_trace& trace) {
  // Reset per-run state so one simulator can replay several traces. The
  // inventory is rebuilt too: a previous run may have removed nodes, or
  // re-admitted restarted ones at the end, which permutes the node order.
  // A trace the loader would reject is rejected before anything is reset.
  validate_trace(trace);
  install_nodes(configured_nodes());
  engine_ = sim_engine{};
  trace_ = &trace;
  live_events_ = 0;
  run_ = run_state{
      // Spelled out: left defaulted, GCC 12 -O3 flags the summary's string
      // as maybe-uninitialized in the temporary.
      .summary = run_summary{},
      .trace_crc = ckpt_enabled_ ? common::crc32(trace.to_csv()) : 0,
      .fault_rng = common::pcg32{config_.faults.seed},
      .chaos_rng = common::pcg32{config_.chaos.seed}};
  power_samples_.clear();
  recovery_was_quarantined_ = false;
  econ_meter_ = econ::cost_meter{config_.econ, config_.n_nodes};
  restored_ = false;

  run_.results.resize(trace.jobs.size());
  for (std::size_t i = 0; i < trace.jobs.size(); ++i)
    schedule(trace.jobs[i].submit_s, event_kind::arrival, static_cast<std::int64_t>(i));
  sample_power();
  if (config_.obs_scrape_interval_s > 0.0)
    schedule(config_.obs_scrape_interval_s, event_kind::scrape);
  if (econ_meter_.active()) {
    // First econ wake-up at the first price boundary (a constant trace has
    // none — nothing can defer, so no tick stream at all).
    const double first = config_.econ.price.next_change_after(0.0);
    if (first > 0.0) schedule(first, event_kind::econ);
  }
  if (config_.chaos.enabled()) {
    // All crash times are drawn up-front from the chaos stream (cumulative
    // exponential inter-arrivals), so neither simulation timing nor resume
    // point can shift them; the victim pick happens at fire time against
    // the then-live inventory.
    double t = 0.0;
    for (std::size_t k = 0; k < config_.chaos.max_crashes; ++k) {
      t += -config_.chaos.mtbf_s * std::log1p(-run_.chaos_rng.uniform());
      schedule(t, event_kind::node_crash);
    }
  }
  if (ckpt_enabled_) {
    if (ckpt_.interval_s > 0.0) schedule(ckpt_.interval_s, event_kind::checkpoint);
    if (ckpt_.crash_at_s >= 0.0) schedule(ckpt_.crash_at_s, event_kind::crash_injection);
  }
  return finish_run();
}

run_summary simulator::finish_run() {
  engine_.run([this](const sim_event& e) { dispatch(e); });
  // Close accounting at the last live event, not engine_.now(): the drained
  // clock can sit on a trailing inert event (a checkpoint tick scheduled
  // before the work ran dry, or a stale completion of a requeued job) whose
  // presence depends on checkpointing/crash history — and the contract is
  // byte-identical output with checkpointing on or off.
  integrate_to(run_.last_live_t);
  // Closing sample: a run shorter than one interval still gets a series
  // point, and the watchdog sees the final state.
  if (config_.obs_scrape_interval_s > 0.0) scrape(run_.last_live_t);

  // Anything still queued can never start (the queue only drains on
  // completions, and none are pending).
  for (const auto& qe : run_.queue)
    fail(qe.row, "deferred by the power budget with nothing left to drain");
  run_.queue.clear();

  run_summary s = run_.summary;
  s.seed = trace_->seed;
  s.policy = policy_->name();
  s.jobs = run_.results.size();
  std::vector<double> waits;
  for (const auto& r : run_.results) {
    if (r.state == sched::job_state::completed) {
      ++s.completed;
      s.makespan_s = std::max(s.makespan_s, r.end_s);
      s.total_gpu_energy_j += r.gpu_energy_j;
      waits.push_back(r.queue_wait_s);
    } else if (r.state == sched::job_state::failed) {
      ++s.failed;
    }
  }
  if (!waits.empty()) {
    s.mean_wait_s = common::mean(waits);
    s.p50_wait_s = common::percentile(waits, 50.0);
    s.p95_wait_s = common::percentile(waits, 95.0);
    s.max_wait_s = common::max_value(waits);
  }
  if (s.makespan_s > 0.0) {
    s.throughput_jobs_per_h = static_cast<double>(s.completed) / s.makespan_s * 3600.0;
    s.gpu_utilization = run_.busy_gpu_seconds /
                        (static_cast<double>(config_.n_nodes * config_.gpus_per_node) *
                         s.makespan_s);
  }
  s.cap_rebalances += budget_->rebalances();
  s.cap_demotions += budget_->demotions();
  s.econ_cost_usd = econ_meter_.total_cost_usd();
  s.econ_capex_usd = econ_meter_.capex_usd();
  s.econ_carbon_g = econ_meter_.facility_carbon_g();
  s.econ_cost_per_job_usd = econ_meter_.cost_per_job_usd();
  s.econ_carbon_per_job_g = econ_meter_.carbon_per_job_g();
  return s;
}

void simulator::econ_tick() {
  // Price boundary: re-run the scheduling scan so jobs a defer() verdict
  // held back get another look under the new price. Inert firings (nothing
  // deferred, nothing startable) deliberately do not touch run_.last_live_t —
  // econ-on/econ-off runs of a never-deferring policy stay byte-identical
  // in the energy columns.
  const bool deferred = try_schedule();
  sample_power();
  // Re-arm while a job the pass deferred waits on a boundary (its last round
  // placed nothing, so it asked a backfilling policy about every queued job)
  // or live work could still defer later; same single-cursor discipline as
  // the scrape tick, so the engine's tie-break sequence stays deterministic.
  if (deferred || has_live_work()) {
    const double next = config_.econ.price.next_change_after(engine_.now());
    if (next > engine_.now()) schedule(next, event_kind::econ);
  }
}

void simulator::scrape_tick() {
  run_.last_live_t = engine_.now();
  ++run_.scrape_ticks;
  scrape(engine_.now());
  // Reschedule only while the run still has live work: keying off engine
  // emptiness would let the scrape and checkpoint tick streams keep each
  // other alive forever.
  if (has_live_work())
    schedule(engine_.now() + config_.obs_scrape_interval_s, event_kind::scrape);
}

void simulator::scrape(double t) {
  obs::energy_ledger::instance().scrape(t);
  if (watchdog_) watchdog_->evaluate(t);
  if (scrape_hook_) scrape_hook_(t);
}

void simulator::attach_observability(std::shared_ptr<obs::slo_watchdog> watchdog,
                                     std::shared_ptr<guarded_planner> attribution_guard) {
  watchdog_ = std::move(watchdog);
  attribution_guard_ = std::move(attribution_guard);
}

void simulator::set_scrape_hook(std::function<void(double)> hook) {
  scrape_hook_ = std::move(hook);
}

void simulator::attach_recovery(std::shared_ptr<guarded_planner> guard,
                                std::shared_ptr<lifecycle::lifecycle_manager> manager) {
  if (manager && ckpt_enabled_) throw std::invalid_argument(lifecycle_checkpointing_error);
  recovery_guard_ = std::move(guard);
  recovery_manager_ = std::move(manager);
  recovery_was_quarantined_ = recovery_guard_ && recovery_guard_->quarantined();
  if (recovery_guard_ && recovery_manager_)
    recovery_guard_->set_quarantine_probe_every(
        recovery_manager_->options().quarantine_probe_every);
}

void simulator::report(std::ostream& os) const {
  common::text_table table;
  table.header({"job", "kernel", "target", "state", "gpus", "wait (s)", "run (s)",
                "core MHz", "GPU energy (J)"});
  for (std::size_t i = 0; i < run_.results.size(); ++i) {
    const auto& job = trace_->jobs[i];
    const auto& r = run_.results[i];
    const bool ran = r.start_s >= 0.0;
    table.row({std::to_string(job.id), job.kernel, job.target, to_string(r.state),
               std::to_string(job.n_gpus),
               ran ? common::text_table::fmt(r.queue_wait_s, 2) : "-",
               r.end_s >= 0.0 ? common::text_table::fmt(r.end_s - r.start_s, 2) : "-",
               ran ? common::text_table::fmt(r.core_mhz, 0) : "-",
               common::text_table::fmt(r.gpu_energy_j, 1)});
  }
  table.print(os);
}

void run_summary::print(std::ostream& os) const {
  common::text_table table;
  table.header({"metric", "value"});
  const auto fmt = [](double v, int p) { return common::text_table::fmt(v, p); };
  table.row({"policy", policy});
  table.row({"seed", std::to_string(seed)});
  table.row({"jobs (completed/failed)", std::to_string(jobs) + " (" +
                                            std::to_string(completed) + "/" +
                                            std::to_string(failed) + ")"});
  table.row({"makespan (s)", fmt(makespan_s, 2)});
  table.row({"throughput (jobs/h)", fmt(throughput_jobs_per_h, 1)});
  table.row({"GPU energy (J)", fmt(total_gpu_energy_j, 1)});
  table.row({"facility energy (J)", fmt(facility_energy_j, 1)});
  table.row({"queue wait mean/p50/p95/max (s)",
             fmt(mean_wait_s, 2) + " / " + fmt(p50_wait_s, 2) + " / " + fmt(p95_wait_s, 2) +
                 " / " + fmt(max_wait_s, 2)});
  table.row({"GPU utilization", fmt(gpu_utilization, 3)});
  table.row({"peak facility power (W)", fmt(peak_facility_power_w, 1)});
  table.row({"cap rebalances", std::to_string(cap_rebalances)});
  table.row({"cap demotions", std::to_string(cap_demotions)});
  if (clock_set_faults + degraded_samples + requeues + nodes_lost > 0 ||
      wasted_gpu_energy_j > 0.0) {
    table.row({"clock-set faults (default clocks)", std::to_string(clock_set_faults)});
    table.row({"degraded energy samples", std::to_string(degraded_samples)});
    table.row({"requeued jobs (device lost)", std::to_string(requeues)});
    table.row({"nodes lost", std::to_string(nodes_lost)});
    table.row({"wasted GPU energy (J)", fmt(wasted_gpu_energy_j, 1)});
  }
  if (node_crashes + node_restarts > 0) {
    table.row({"node crashes (chaos)", std::to_string(node_crashes)});
    table.row({"node restarts (chaos)", std::to_string(node_restarts)});
  }
  if (quarantines + promotions + rollbacks > 0) {
    table.row({"model quarantines", std::to_string(quarantines)});
    table.row({"model promotions", std::to_string(promotions)});
    table.row({"model rollbacks", std::to_string(rollbacks)});
  }
  if (governor_ticks > 0) {
    table.row({"governor ticks", std::to_string(governor_ticks)});
    table.row({"governor clock changes", std::to_string(governor_clock_changes)});
  }
  if (econ_cost_usd > 0.0 || econ_carbon_g > 0.0) {
    table.row({"facility cost (USD)", fmt(econ_cost_usd, 4)});
    table.row({"amortised capex (USD)", fmt(econ_capex_usd, 4)});
    table.row({"facility carbon (gCO2)", fmt(econ_carbon_g, 1)});
    table.row({"cost per job (USD)", fmt(econ_cost_per_job_usd, 5)});
    table.row({"carbon per job (gCO2)", fmt(econ_carbon_per_job_g, 2)});
    table.row({"jobs deferred (price)", std::to_string(econ_jobs_deferred)});
    table.row({"price clock demotions", std::to_string(econ_price_demotions)});
  }
  table.print(os);
}

std::span<const run_summary::field> run_summary::fields() {
  using s = run_summary;
  static const field table[] = {
      {"jobs", &s::jobs},
      {"completed", &s::completed},
      {"failed", &s::failed},
      {"makespan_s", &s::makespan_s},
      {"throughput_jobs_per_h", &s::throughput_jobs_per_h},
      {"gpu_energy_j", &s::total_gpu_energy_j},
      {"facility_energy_j", &s::facility_energy_j},
      {"mean_wait_s", &s::mean_wait_s},
      {"p50_wait_s", &s::p50_wait_s},
      {"p95_wait_s", &s::p95_wait_s},
      {"max_wait_s", &s::max_wait_s},
      {"gpu_utilization", &s::gpu_utilization},
      {"peak_facility_power_w", &s::peak_facility_power_w},
      {"cap_rebalances", &s::cap_rebalances},
      {"cap_demotions", &s::cap_demotions},
      {"clock_set_faults", &s::clock_set_faults},
      {"degraded_samples", &s::degraded_samples},
      {"requeues", &s::requeues},
      {"nodes_lost", &s::nodes_lost},
      {"wasted_gpu_energy_j", &s::wasted_gpu_energy_j},
      {"node_crashes", &s::node_crashes},
      {"node_restarts", &s::node_restarts},
      {"quarantines", &s::quarantines},
      {"promotions", &s::promotions},
      {"rollbacks", &s::rollbacks},
      {"governor_ticks", &s::governor_ticks},
      {"governor_clock_changes", &s::governor_clock_changes},
      {"econ_cost_usd", &s::econ_cost_usd},
      {"econ_capex_usd", &s::econ_capex_usd},
      {"econ_carbon_g", &s::econ_carbon_g},
      {"econ_cost_per_job_usd", &s::econ_cost_per_job_usd},
      {"econ_carbon_per_job_g", &s::econ_carbon_per_job_g},
      {"econ_jobs_deferred", &s::econ_jobs_deferred},
      {"econ_price_demotions", &s::econ_price_demotions},
  };
  return table;
}

void run_summary::csv(std::ostream& os, bool with_header) const {
  common::csv_writer csv{os};
  if (with_header) {
    os << "# seed=" << seed << " policy=" << policy << '\n';
    std::vector<std::string> header{"policy", "seed"};
    for (const auto& f : fields()) header.emplace_back(f.name);
    csv.row(header);
  }
  std::vector<std::string> row{policy, std::to_string(seed)};
  for (const auto& f : fields())
    row.push_back(f.count ? std::to_string(this->*f.count)
                          : common::csv_writer::num(this->*f.value));
  csv.row(row);
}

plan_fn make_suite_planner(const std::string& device) {
  auto spec = gpusim::make_device_spec(device);
  features::kernel_registry registry;
  workloads::register_all(registry);
  auto table = std::make_shared<tuning_table>(
      compile_tuning_table_oracle(registry, metrics::paper_objectives(), spec));
  return [spec = std::move(spec), table = std::move(table)](
             const std::string& kernel, const metrics::target& target) {
    if (const auto hit = table->find(kernel, target)) return *hit;
    // Kernel or target outside the compiled artefact: plan on the fly at a
    // representative size, as compile_tuning_table_oracle does.
    auto profile = workloads::find(kernel).info.to_profile(1);
    profile.work_items = 1 << 22;
    return oracle_plan(spec, profile, target);
  };
}

guarded_suite_planner make_guarded_suite_planner(const std::string& device,
                                                 const std::filesystem::path& model_dir) {
  auto spec = gpusim::make_device_spec(device);
  features::kernel_registry registry;
  workloads::register_all(registry);
  auto table = std::make_shared<tuning_table>(
      compile_tuning_table_oracle(registry, metrics::paper_objectives(), spec));

  guarded_suite_planner out;
  model_store store{model_dir};
  auto loaded = store.load(device);
  std::shared_ptr<const frequency_planner> planner;
  if (loaded.ok()) {
    planner = std::make_shared<frequency_planner>(spec, std::move(loaded.models));
    out.model_loaded = true;
  } else {
    out.load_summary = loaded.summary();
    common::log_warn("cluster: model set for '", device,
                     "' unusable; planning from the tuning-table tier\n", out.load_summary);
  }
  out.guard = std::make_shared<guarded_planner>(spec, std::move(planner), std::move(table));
  // The service fronts the shared guard with its generation-keyed cache.
  // Quarantined decisions flow through uncached so the per-admission probe
  // cadence (and quarantine accounting) stays exactly what the bare chain
  // would produce; healthy decisions are served from the cache until a
  // promotion or quarantine transition bumps the chain generation.
  plan_service_options service_opts;
  service_opts.cache_quarantined = false;
  out.service = std::make_shared<plan_service>(out.guard, service_opts);
  out.plan = [service = out.service](const std::string& kernel, const metrics::target& target) {
    const auto sp = service->plan(kernel, workloads::find(kernel).info.features, target);
    return planned_clocks{sp.decision.config, plan_cause(sp.decision)};
  };
  return out;
}

}  // namespace synergy::cluster

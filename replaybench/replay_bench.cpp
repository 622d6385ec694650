/// replay_bench — host throughput, memory and per-layer time of the cluster
/// simulator, replaying seeded job traces through the public API on one
/// thread. README.md in this directory lists the workloads and metrics.
///
/// Usage: replay_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///                     [--size full|tiny] [--work-dir DIR] [--reference FILE]
///                     [--digest] [--verbose]
///
/// One operation is one replay: set-up (trace generation and CSV round-trip,
/// planner build, simulator construction), simulator::run, and on the
/// facility workload a restore + resume from a mid-run checkpoint, followed by
/// the output checks. A run takes its traces from the seed and replays them in
/// turn until --seconds have passed. The last line of stdout is one JSON
/// object: correct / attempted / failed / metrics. --trace 0 reports the
/// end-to-end metrics; --trace 1 replays each trace plainly, through the
/// timing decorators and at half length, and reports the per-layer metrics.
/// --digest prints "<workload> <trace seed> <digest>" for one plain replay of
/// each trace instead (run.py --record collects these into the reference
/// file).
///
/// Exit status: 0 after printing a result (even one with failed operations),
/// 1 when --digest finds a failed check, 2 on a usage error.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "layers.hpp"
#include "synergy/cluster/checkpoint.hpp"
#include "synergy/cluster/simulator.hpp"
#include "synergy/common/stats.hpp"
#include "synergy/econ/trace.hpp"
#include "synergy/governor/governor.hpp"
#include "synergy/guarded_planner.hpp"
#include "synergy/model_store.hpp"
#include "synergy/obs/energy_ledger.hpp"
#include "synergy/obs/slo_watchdog.hpp"
#include "synergy/obs/snapshot.hpp"
#include "synergy/plan_service.hpp"
#include "synergy/telemetry/metrics_registry.hpp"
#include "synergy/trainer.hpp"

namespace fs = std::filesystem;
namespace sc = synergy::cluster;
namespace obs = synergy::obs;
using namespace replaybench;

namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

constexpr std::size_t n_nodes = 64;
constexpr std::size_t gpus_per_node = 4;
constexpr const char* device = "V100";
/// --size tiny divides every job count by this (smoke test).
constexpr std::size_t tiny_divisor = 10;
/// Seed whose digests must be in the reference file.
constexpr std::uint64_t default_seed = 1;
/// Traces per run: run seed s replays the traces generated from seeds
/// 1000 s ... 1000 s + traces_per_run - 1 in turn, so no single trace's
/// queueing luck sets a run's figure.
constexpr std::size_t traces_per_run = 3;

std::uint64_t trace_seed(std::uint64_t seed, std::size_t k) { return seed * 1000 + k; }

struct workload {
  std::string name;
  std::size_t n_jobs{0};
  double mean_interarrival_s{0.5};
  bool facility{false};  ///< cost policy + models + cap + faults + chaos + obs + checkpoints
  bool governed{false};  ///< hybrid governor ticking every 0.25 s, mid-run drift
};

const std::vector<workload>& all_workloads() {
  // 256 GPUs; at 0.5 s mean interarrival the default job mix loads them to
  // ~60%. README.md gives the reasons for each shape.
  static const std::vector<workload> all = {
      {"steady", 5000, 0.5, false, false},
      {"backlog", 900, 0.01, false, false},
      {"facility", 1000, 1.0, true, false},
      {"governed", 5000, 0.5, false, true},
  };
  return all;
}

// Facility-stack knobs (the production stack of synergy_cluster's flags).
constexpr double facility_cap_w = 50000.0;
/// Scrapes and checkpoints per arrival span (n_jobs x mean interarrival),
/// so every trace size sees the same cadence relative to its length.
constexpr double scrapes_per_span = 40.0;
constexpr double checkpoints_per_span = 8.0;
constexpr double econ_period_s = 240.0;
constexpr double deferrable_fraction = 0.3;

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Snapshot files written by one simulator's scrape hook.
struct snapshot_stats {
  fs::path prefix;
  obs::snapshot_options opts;
  std::vector<double> write_ms;
  std::size_t write_failures{0};
};

/// One simulator and the planner chain and watchdog it was built with.
struct replay_side {
  std::shared_ptr<synergy::guarded_planner> guard;
  std::shared_ptr<synergy::plan_service> service;
  std::shared_ptr<obs::slo_watchdog> watchdog;
  std::unique_ptr<sc::simulator> sim;
  snapshot_stats snaps;
};

/// Everything one operation replays. Built in place and never moved: the
/// cost policy, the decorators and the scrape hooks hold pointers into it.
struct replay_setup {
  const workload* w{nullptr};
  fs::path dir;
  sc::cluster_config cc;
  sc::job_trace trace;
  replay_side main;
  replay_side resumed;  ///< facility: restored from a mid-run checkpoint of `main`
  // traced set-ups only: decorator counters of the main simulator
  policy_stats policy;
  plan_stats plan;
  // set-up timings (seconds)
  double gen_s{0.0};
  double parse_s{0.0};
  double setup_s{0.0};
  std::vector<std::string> failures;
};

sc::trace_config trace_config_for(const workload& w, std::size_t n_jobs, std::uint64_t seed) {
  sc::trace_config tc;
  tc.n_jobs = n_jobs;
  tc.mean_interarrival_s = w.mean_interarrival_s;
  tc.seed = seed;
  if (w.facility) tc.deferrable_fraction = deferrable_fraction;
  return tc;
}

sc::cluster_config cluster_config_for(const workload& w, std::size_t n_jobs, std::uint64_t seed) {
  sc::cluster_config cc;
  cc.n_nodes = n_nodes;
  cc.gpus_per_node = gpus_per_node;
  cc.device = device;
  const double span_s = static_cast<double>(n_jobs) * w.mean_interarrival_s;
  if (w.governed) {
    cc.governor.enabled = true;
    cc.governor.spec = synergy::governor::parse_governor_spec("hybrid").value();
    cc.governor.tick_interval_s = 0.25;
    // Boards drift a quarter into the arrival span, so the hybrid governor
    // moves clocks (and re-prices jobs) instead of holding every seed.
    cc.drift.at_s = 0.25 * span_s;
    cc.drift.power_skew = 1.5;
    cc.drift.freq_exponent = 1.0;
  }
  if (w.facility) {
    cc.facility_cap_w = facility_cap_w;
    cc.faults.seed = seed ^ 0xfa0175eedULL;
    cc.faults.clock_set_fail_rate = 0.02;
    cc.faults.power_read_dropout_rate = 0.02;
    cc.faults.device_lost_rate = 0.002;
    cc.faults.max_node_losses = 2;
    cc.chaos.seed = seed ^ 0xc4a05c4a05ULL;
    cc.chaos.mtbf_s = 60.0;
    cc.chaos.restart_delay_s = 60.0;
    cc.chaos.max_crashes = 3;
    cc.obs_scrape_interval_s = span_s / scrapes_per_span;
    // Synthetic diurnal tariffs seeded like synergy_cluster --econ.
    namespace econ = synergy::econ;
    cc.econ.enabled = true;
    econ::synthetic_config syn;
    syn.seed = seed;
    syn.period_s = econ_period_s;
    syn.step_s = econ_period_s / 24.0;
    syn.stream = 0;
    syn.base = 0.10;
    syn.amplitude = 0.04;
    syn.noise = 0.01;
    cc.econ.price = econ::synthetic_diurnal(syn);
    syn.stream = 1;
    syn.base = 300.0;
    syn.amplitude = 120.0;
    syn.noise = 20.0;
    cc.econ.carbon = econ::synthetic_diurnal(syn);
  }
  return cc;
}

/// Train a small model set (the administrator step of synergy_train) into
/// `dir`, so the facility planner has a model tier to load.
void train_models(const fs::path& dir) {
  synergy::trainer_options opt;
  opt.n_microbenchmarks = 16;
  opt.freq_samples = 8;
  opt.repetitions = 1;
  synergy::model_trainer trainer{synergy::gpusim::make_device_spec(device), opt};
  const auto sets = trainer.measure(trainer.generate_microbenchmarks());
  const auto models = trainer.fit(sets, synergy::ml::algorithm::linear,
                                  synergy::ml::algorithm::random_forest,
                                  synergy::ml::algorithm::random_forest,
                                  synergy::ml::algorithm::linear);
  if (const auto st = synergy::model_store{dir}.save(device, models); !st.ok())
    throw std::runtime_error("cannot persist models: " + st.err().to_string());
}

std::shared_ptr<obs::slo_watchdog> make_watchdog() {
  // synergy_cluster's built-in rules with a model tier and econ on.
  auto rules = obs::parse_rules(
      "wasted_energy_j > 0\n"
      "energy_per_job_ratio > 1.5 window 24\n"
      "quarantine_dwell_s > 60\n"
      "fallback_ratio > 0.5 window 32\n"
      "cost_per_job_ratio > 1.4 window 24\n"
      "carbon_per_job_ratio > 1.4 window 24\n");
  return std::make_shared<obs::slo_watchdog>(std::move(rules).value(),
                                             &obs::energy_ledger::instance());
}

/// Scrape hook that writes the snapshot files, as synergy_cluster --obs-out.
void attach_snapshots(replay_side& side) {
  side.snaps.opts.source = "replay_bench";
  side.sim->set_scrape_hook([&side](double t_s) {
    auto& o = side.snaps.opts;
    ++o.sequence;
    o.time_s = t_s;
    if (const auto& meter = side.sim->econ_meter(); meter.active()) {
      o.econ.enabled = true;
      o.econ.cost_usd = meter.total_cost_usd();
      o.econ.capex_usd = meter.capex_usd();
      o.econ.carbon_g = meter.facility_carbon_g();
      o.econ.cost_per_job_usd = meter.cost_per_job_usd();
      o.econ.carbon_per_job_g = meter.carbon_per_job_g();
      o.econ.attributed_cost_usd = meter.attributed_cost_usd();
      o.econ.attributed_carbon_g = meter.attributed_carbon_g();
      o.econ.cost_by_cause = meter.cost_by_cause();
      o.econ.carbon_by_cause = meter.carbon_by_cause();
      o.econ.jobs_completed = meter.jobs_completed();
    }
    const auto t0 = bench_clock::now();
    const auto st = obs::write_snapshot_files(side.snaps.prefix, obs::energy_ledger::instance(),
                                              side.watchdog.get(), o);
    side.snaps.write_ms.push_back(seconds_since(t0) * 1e3);
    if (!st.ok()) ++side.snaps.write_failures;
  });
}

/// One facility simulator: guarded planner over the trained models behind
/// its plan service, cost policy, checkpoints, watchdog and snapshot hook.
void build_facility_side(replay_setup& s, replay_side& side, const fs::path& models,
                         const std::string& tag, bool traced) {
  auto guarded = sc::make_guarded_suite_planner(device, models);
  if (!guarded.model_loaded) s.failures.push_back("model tier not loaded: " + guarded.load_summary);
  side.guard = guarded.guard;
  side.service = guarded.service;
  sc::plan_fn plan = traced ? timed_plan(std::move(guarded.plan), s.plan) : std::move(guarded.plan);
  auto policy = sc::make_policy("cost", std::move(plan), std::nullopt, &s.cc.econ);
  if (traced) policy = std::make_unique<timed_policy>(std::move(policy), s.policy);
  side.sim = std::make_unique<sc::simulator>(s.cc, std::move(policy));
  sc::checkpoint_options ckpt;
  ckpt.interval_s = static_cast<double>(s.trace.jobs.size()) * s.w->mean_interarrival_s /
                    checkpoints_per_span;
  ckpt.dir = s.dir / ("ckpt-" + tag);
  ckpt.guard = side.guard;
  ckpt.service = side.service;
  fs::create_directories(ckpt.dir);
  side.sim->set_checkpointing(std::move(ckpt));
  side.watchdog = make_watchdog();
  side.sim->attach_observability(side.watchdog, side.guard);
  side.snaps.prefix = s.dir / tag;
  attach_snapshots(side);
}

/// Build everything one operation replays; times the whole set-up.
std::unique_ptr<replay_setup> prepare(const workload& w, std::size_t n_jobs, std::uint64_t seed,
                                      bool traced, const fs::path& dir) {
  const auto t0 = bench_clock::now();
  auto s = std::make_unique<replay_setup>();
  s->w = &w;
  s->dir = dir;
  fs::create_directories(dir);

  auto t = bench_clock::now();
  const auto generated = sc::generate_trace(trace_config_for(w, n_jobs, seed));
  s->gen_s = seconds_since(t);
  t = bench_clock::now();
  s->trace = sc::job_trace::from_csv(generated.to_csv());
  s->parse_s = seconds_since(t);
  if (!(s->trace == generated)) s->failures.push_back("trace CSV round-trip changed the trace");

  s->cc = cluster_config_for(w, n_jobs, seed);
  if (w.facility) {
    const fs::path models = dir / "models";
    train_models(models);
    build_facility_side(*s, s->main, models, "full", traced);
    build_facility_side(*s, s->resumed, models, "resumed", false);
  } else {
    sc::plan_fn plan = sc::make_suite_planner(device);
    if (traced) plan = timed_plan(std::move(plan), s->plan);
    std::unique_ptr<sc::scheduling_policy> policy = sc::make_energy_aware(std::move(plan));
    if (traced) policy = std::make_unique<timed_policy>(std::move(policy), s->policy);
    s->main.sim = std::make_unique<sc::simulator>(s->cc, std::move(policy));
  }
  s->setup_s = seconds_since(t0);
  return s;
}

// ---------------------------------------------------------------------------
// Replay and output checks
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Summary CSV plus the per-job sacct table: what a replay's user reads.
std::string render_outputs(const sc::run_summary& summary, const sc::simulator& sim) {
  std::ostringstream os;
  summary.csv(os);
  sim.report(os);
  return os.str();
}

std::string read_file(const fs::path& p) {
  std::ifstream in{p, std::ios::binary};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string alert_lines(const obs::slo_watchdog& watchdog) {
  std::string out;
  for (const auto& a : watchdog.alerts()) out += a.to_json_line() + '\n';
  return out;
}

/// Linear-interpolated percentile `p` in [0, 100] of `v`; 0 when empty.
double percentile(const std::vector<double>& v, double p) {
  return v.empty() ? 0.0 : synergy::common::percentile(v, p);
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

bool within_0p1pct(double a, double b) {
  return std::abs(a - b) <= 1e-3 * std::max(std::abs(b), 1e-9);
}

/// Start every replay from the same global state: the ledger and metrics
/// registry are process-wide.
void reset_globals() {
  obs::energy_ledger::instance().reset();
  synergy::telemetry::metrics_registry::instance().reset_values();
}

struct flow_result {
  sc::run_summary summary;
  std::string digest;
  double run_s{0.0};
  double replay_s{0.0};      ///< run + resume
  std::size_t jobs_done{0};  ///< completed by run + completed by resume
  std::size_t power_samples{0};
  std::uint64_t ledger_charges{0};
  std::size_t ledger_cells{0};
  // facility only
  std::uint64_t checkpoints{0};
  std::uintmax_t checkpoint_bytes{0};
  double restore_s{0.0};
  double resume_s{0.0};
  double checkpoint_write_s{0.0};  ///< serialize + write, measured when traced
  std::vector<std::string> failures;
};

/// Replay the set-up's trace and check the outputs. `with_resume` adds the
/// facility restore + resume; `probe_checkpoint` times serialize + write on
/// the restored state.
flow_result run_flow(replay_setup& s, bool with_resume, bool probe_checkpoint) {
  flow_result f;
  f.failures = s.failures;
  auto& ledger = obs::energy_ledger::instance();
  auto& sim = *s.main.sim;
  reset_globals();
  auto t0 = bench_clock::now();
  f.summary = sim.run(s.trace);
  f.run_s = seconds_since(t0);
  f.replay_s = f.run_s;
  f.jobs_done = f.summary.completed;
  const std::string outputs = render_outputs(f.summary, sim);
  f.digest = hex(fnv1a(outputs));

  const auto& sum = f.summary;
  if (sum.jobs != s.trace.jobs.size() || sum.completed + sum.failed != sum.jobs)
    f.failures.push_back("completed + failed != jobs");
  const double used_plus_wasted = sum.total_gpu_energy_j + sum.wasted_gpu_energy_j;
  if (!within_0p1pct(ledger.total_j(), used_plus_wasted))
    f.failures.push_back("ledger total != used + wasted (0.1%)");
  double by_cause = 0.0;
  for (const double j : ledger.totals_by_cause()) by_cause += j;
  if (!within_0p1pct(by_cause, ledger.total_j()))
    f.failures.push_back("ledger causes do not sum to the total (0.1%)");
  f.power_samples = sim.power_samples().size();
  f.ledger_charges = ledger.charges();
  f.ledger_cells = ledger.entries().size();
  if (!s.w->facility) return f;

  const auto& meter = sim.econ_meter();
  double cost = 0.0;
  double carbon = 0.0;
  for (std::size_t c = 0; c < obs::n_causes; ++c) {
    cost += meter.cost_by_cause()[c];
    carbon += meter.carbon_by_cause()[c];
  }
  if (!within_0p1pct(cost, meter.attributed_cost_usd()) ||
      !within_0p1pct(carbon, meter.attributed_carbon_g()))
    f.failures.push_back("econ causes do not sum to the attributed total (0.1%)");
  if (s.main.snaps.write_failures > 0) f.failures.push_back("snapshot write failed");
  f.checkpoints = sim.checkpoints_written();
  if (!with_resume) return f;
  if (f.checkpoints == 0) {
    f.failures.push_back("no checkpoint written");
    return f;
  }

  // Restore the middle artefact into the second simulator and finish the run.
  auto& resumed = *s.resumed.sim;
  const fs::path artefact = s.dir / "ckpt-full" / sc::checkpoint_file_name(f.checkpoints / 2);
  f.checkpoint_bytes = fs::file_size(artefact);
  reset_globals();
  t0 = bench_clock::now();
  const auto payload = sc::read_checkpoint_payload(artefact);
  if (!payload.has_value()) {
    f.failures.push_back("checkpoint unreadable: " + payload.err().to_string());
    return f;
  }
  if (const auto st = resumed.restore_checkpoint(payload.value(), s.trace); !st.ok()) {
    f.failures.push_back("restore failed: " + st.err().to_string());
    return f;
  }
  f.restore_s = seconds_since(t0);
  std::size_t done_at_restore = 0;
  for (const auto& r : resumed.results())
    if (r.state == synergy::sched::job_state::completed) ++done_at_restore;
  s.resumed.snaps.opts.sequence = resumed.scrape_ticks();

  if (probe_checkpoint) {
    std::vector<double> write_s;
    for (int i = 0; i < 3; ++i) {
      const auto tw = bench_clock::now();
      const auto st =
          sc::write_checkpoint_file(s.dir / "probe.synergy", resumed.serialize_checkpoint());
      write_s.push_back(seconds_since(tw));
      if (!st.ok()) f.failures.push_back("checkpoint write failed: " + st.err().to_string());
    }
    f.checkpoint_write_s = median(write_s);
  }

  t0 = bench_clock::now();
  const auto tail = resumed.resume(s.trace);
  f.resume_s = seconds_since(t0);
  f.replay_s += f.resume_s;
  f.jobs_done += tail.completed - done_at_restore;
  if (render_outputs(tail, resumed) != outputs)
    f.failures.push_back("resumed summary/report differ from the uninterrupted run");
  for (const char* ext : {".json", ".prom"}) {
    const auto full = read_file(s.dir / (std::string{"full"} + ext));
    if (full.empty() || full != read_file(s.dir / (std::string{"resumed"} + ext)))
      f.failures.push_back(std::string{"resumed obs snapshot differs: "} + ext);
  }
  if (alert_lines(*s.main.watchdog) != alert_lines(*s.resumed.watchdog))
    f.failures.push_back("resumed alerts differ");
  return f;
}

// ---------------------------------------------------------------------------
// Reference digests
// ---------------------------------------------------------------------------

/// Reference file rows: "<workload> <trace seed> <digest>". Returns "" when
/// the (workload, trace seed) pair is not recorded.
std::string reference_digest(const fs::path& file, const std::string& workload,
                             std::uint64_t trace) {
  std::ifstream in{file};
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row{line};
    std::string name;
    std::uint64_t seed = 0;
    std::string digest;
    if (row >> name >> seed >> digest && name == workload && seed == trace) return digest;
  }
  return "";
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

struct metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  os << "}}";
  std::cout << os.str() << std::endl;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct options {
  const workload* w{nullptr};
  std::uint64_t seed{default_seed};
  double seconds{10.0};
  bool trace{false};
  bool tiny{false};
  bool digest_only{false};
  bool verbose{false};
  fs::path work_dir{".bench_build/replaybench/work"};
  fs::path reference{"replaybench/reference.tsv"};
};

std::size_t job_count(const options& o) {
  return o.tiny ? o.w->n_jobs / tiny_divisor : o.w->n_jobs;
}

/// Operation bookkeeping shared by both modes.
struct op_log {
  explicit op_log(const options& opts) : o(&opts) {}

  const options* o;
  std::size_t attempted{0};
  std::size_t failed{0};
  std::map<std::uint64_t, std::string> first_digest;  ///< by trace seed

  /// Determinism and reference checks of one replay of `trace`: its digest
  /// must match the trace's first replay and, at full size, the recorded one.
  void check_digest(std::uint64_t trace, const std::string& digest,
                    std::vector<std::string>& failures) {
    if (digest != first_digest.try_emplace(trace, digest).first->second)
      failures.push_back("replay digest differs from the first replay of the trace");
    if (o->tiny) return;
    const auto want = reference_digest(o->reference, o->w->name, trace);
    if (want.empty()) {
      if (o->seed == default_seed) failures.push_back("no reference digest for the default seed");
    } else if (want != digest) {
      failures.push_back("digest " + digest + " != reference " + want + " for trace seed " +
                         std::to_string(trace));
    }
  }
  /// Count one operation; `failures` makes it a failed one.
  void record(const std::string& what, const std::vector<std::string>& failures) {
    ++attempted;
    if (failures.empty()) return;
    ++failed;
    for (const auto& why : failures) std::cerr << "FAIL " << what << ": " << why << '\n';
  }
};

int run_timed(const options& o, const fs::path& base) {
  // Each trace's best replay and the shortest set-up count: contention from
  // other tenants of a shared host only ever slows an operation, and it
  // comes in spells longer than one replay, so the fastest of many is the
  // steadiest estimate of the simulator's own speed (--verbose prints every
  // operation). Rounds over the traces run to completion.
  op_log log{o};
  constexpr double never = std::numeric_limits<double>::infinity();
  std::vector<double> best_replay_s(traces_per_run, never);
  std::vector<double> jobs_done(traces_per_run, 0.0);
  double best_setup_s = never;
  const auto start = bench_clock::now();
  for (std::size_t op = 0;
       op < traces_per_run || op % traces_per_run != 0 || seconds_since(start) < o.seconds;
       ++op) {
    const std::size_t k = op % traces_per_run;
    const std::uint64_t trace = trace_seed(o.seed, k);
    const fs::path dir = base / ("op" + std::to_string(op));
    std::vector<std::string> failures;
    try {
      auto s = prepare(*o.w, job_count(o), trace, false, dir);
      auto f = run_flow(*s, true, false);
      failures = std::move(f.failures);
      log.check_digest(trace, f.digest, failures);
      best_setup_s = std::min(best_setup_s, s->setup_s);
      if (failures.empty()) {
        best_replay_s[k] = std::min(best_replay_s[k], f.replay_s);
        jobs_done[k] = static_cast<double>(f.jobs_done);
      }
      if (o.verbose)
        std::cerr << "op " << op << " trace " << trace << ": setup_s " << s->setup_s
                  << " replay_s " << f.replay_s << " jobs " << f.jobs_done << '\n';
    } catch (const std::exception& e) {
      failures.push_back(std::string{"exception: "} + e.what());
    }
    log.record(o.w->name + " op " + std::to_string(op), failures);
    fs::remove_all(dir);
  }
  double jobs = 0.0;
  double replay_s = 0.0;
  for (std::size_t k = 0; k < traces_per_run; ++k) {
    jobs += jobs_done[k];
    replay_s += best_replay_s[k];
  }
  print_result(log.failed == 0, log.attempted, log.failed,
               {{"jobs_per_s", std::isfinite(replay_s) ? jobs / replay_s : 0.0, "1/s"},
                {"setup_s", std::isfinite(best_setup_s) ? best_setup_s : 0.0, "s"},
                {"peak_rss_mb", peak_rss_mb(), "MB"}});
  return 0;
}

/// Per-layer samples of one traced operation.
using layer_sample = std::map<std::string, double>;

layer_sample layers_of(const replay_setup& s, const flow_result& traced, const flow_result& plain,
                       double half_run_s) {
  const auto& sum = traced.summary;
  const double jobs = static_cast<double>(std::max<std::size_t>(sum.jobs, 1));
  const auto& p = s.policy;
  const auto& pl = s.plan;
  const auto& snaps = s.main.snaps;
  layer_sample m;
  double snapshot_s = 0.0;
  for (const double ms : snaps.write_ms) snapshot_s += ms / 1e3;
  m["run_s"] = traced.run_s;
  m["sim.self_s"] = traced.run_s - p.place_s - p.defer_s - snapshot_s;
  m["sim.power_samples"] = static_cast<double>(traced.power_samples);
  m["sim.scaling_exp"] = half_run_s > 0.0 ? std::log2(plain.run_s / half_run_s) : 0.0;
  m["policy.place_calls_per_job"] = static_cast<double>(p.place_calls) / jobs;
  m["policy.place_s"] = p.place_s;
  m["policy.place_ok_ratio"] =
      p.place_calls ? static_cast<double>(p.place_ok) / static_cast<double>(p.place_calls) : 0.0;
  m["policy.defer_calls"] = static_cast<double>(p.defer_calls);
  m["policy.defer_s"] = p.defer_s;
  m["plan.calls"] = static_cast<double>(pl.call_us.size());
  m["plan.s"] = pl.total_s;
  m["plan.p50_us"] = percentile(pl.call_us, 50.0);
  m["plan.p99_us"] = percentile(pl.call_us, 99.0);
  m["plan.cold_us"] = median(pl.cold_us);
  double hit_ratio = 0.0;
  if (s.main.service) {
    const auto st = s.main.service->cache_stats();
    if (st.hits + st.misses > 0)
      hit_ratio = static_cast<double>(st.hits) / static_cast<double>(st.hits + st.misses);
  }
  m["plan.cache_hit_ratio"] = hit_ratio;
  m["budget.rebalances"] = static_cast<double>(sum.cap_rebalances);
  m["budget.demotions"] = static_cast<double>(sum.cap_demotions);
  m["obs.snapshots"] = static_cast<double>(snaps.write_ms.size());
  m["obs.snapshot_s"] = snapshot_s;
  m["obs.snapshot_ms_p50"] = percentile(snaps.write_ms, 50.0);
  m["obs.snapshot_ms_p99"] = percentile(snaps.write_ms, 99.0);
  double snapshot_bytes = 0.0;
  for (const char* ext : {".json", ".prom"}) {
    std::error_code ec;
    const auto size = fs::file_size(snaps.prefix.string() + ext, ec);
    if (!ec) snapshot_bytes += static_cast<double>(size);
  }
  m["obs.snapshot_bytes"] = snapshot_bytes;
  m["obs.charges"] = static_cast<double>(traced.ledger_charges);
  m["obs.cells"] = static_cast<double>(traced.ledger_cells);
  m["econ.deferred"] = static_cast<double>(sum.econ_jobs_deferred);
  m["ckpt.count"] = static_cast<double>(traced.checkpoints);
  m["ckpt.bytes"] = static_cast<double>(traced.checkpoint_bytes);
  m["ckpt.write_ms"] = traced.checkpoint_write_s * 1e3;
  m["ckpt.restore_ms"] = traced.restore_s * 1e3;
  m["ckpt.resume_s"] = traced.resume_s;
  // One power sample per fired event except scrape and checkpoint ticks
  // (plus the initial sample).
  m["engine.events"] = static_cast<double>(traced.power_samples - 1 +
                                           s.main.sim->scrape_ticks() + traced.checkpoints);
  m["governor.ticks_per_job"] = static_cast<double>(sum.governor_ticks) / jobs;
  m["trace.gen_s"] = s.gen_s;
  m["trace.parse_s"] = s.parse_s;
  const double traced_rate = static_cast<double>(traced.jobs_done) / traced.replay_s;
  const double plain_rate = static_cast<double>(plain.jobs_done) / plain.replay_s;
  m["trace_overhead_pct"] = 100.0 * (plain_rate - traced_rate) / plain_rate;
  // Estimated dvfs_model::evaluate calls: runtime estimate at arrival (plus
  // the cap feasibility floor), one pricing per placement (plus one cap
  // admission try, plus one per demotion step), one per governor clock move.
  const double capped = s.cc.facility_cap_w > 0.0 ? 1.0 : 0.0;
  m["gpusim.evaluations_est"] = jobs * (1.0 + capped) +
                                static_cast<double>(p.place_ok) * (1.0 + capped) +
                                static_cast<double>(sum.cap_demotions + sum.governor_clock_changes);
  return m;
}

int run_traced(const options& o, const fs::path& base) {
  op_log log{o};
  std::vector<layer_sample> samples;
  const std::size_t n_jobs = job_count(o);
  const auto start = bench_clock::now();
  for (std::size_t op = 0; op < 1 || seconds_since(start) < o.seconds; ++op) {
    const std::uint64_t trace = trace_seed(o.seed, op % traces_per_run);
    const fs::path dir = base / ("op" + std::to_string(op));
    std::vector<std::string> failures;
    try {
      auto plain_setup = prepare(*o.w, n_jobs, trace, false, dir / "plain");
      auto plain = run_flow(*plain_setup, true, false);
      log.check_digest(trace, plain.digest, plain.failures);
      log.record(o.w->name + " plain op " + std::to_string(op), plain.failures);

      auto traced_setup = prepare(*o.w, n_jobs, trace, true, dir / "traced");
      auto traced = run_flow(*traced_setup, true, true);
      if (traced.digest != plain.digest)
        traced.failures.push_back("traced replay digest differs from the plain replay");
      log.record(o.w->name + " traced op " + std::to_string(op), traced.failures);

      auto half_setup = prepare(*o.w, n_jobs / 2, trace, false, dir / "half");
      auto half = run_flow(*half_setup, false, false);
      failures = std::move(half.failures);
      if (plain.failures.empty() && traced.failures.empty())
        samples.push_back(layers_of(*traced_setup, traced, plain, half.run_s));
    } catch (const std::exception& e) {
      failures.push_back(std::string{"exception: "} + e.what());
    }
    log.record(o.w->name + " half op " + std::to_string(op), failures);
    fs::remove_all(dir);
  }

  std::map<std::string, std::vector<double>> by_name;
  for (const auto& s : samples)
    for (const auto& [k, v] : s) by_name[k].push_back(v);
  const auto med = [&](const std::string& k) { return median(by_name[k]); };

  // Composed costs: best-of tight-loop price per call x the run's own count.
  const auto cc = cluster_config_for(*o.w, n_jobs, trace_seed(o.seed, 0));
  const auto unit = measure_unit_costs(n_nodes, gpus_per_node, cc.facility_cap_w, cc.econ);
  const double run_s = med("run_s");
  const auto share_pct = [&](double calls, double per_call_s) {
    return run_s > 0.0 ? 100.0 * calls * per_call_s / run_s : 0.0;
  };
  const double econ_charges = cc.econ.usable() ? med("obs.charges") : 0.0;

  std::vector<metric> out = {
      {"sim.self_s", med("sim.self_s"), "s"},
      {"sim.power_samples", med("sim.power_samples"), "count"},
      {"sim.scaling_exp", med("sim.scaling_exp"), "log2"},
      {"policy.place_calls_per_job", med("policy.place_calls_per_job"), "count"},
      {"policy.place_s", med("policy.place_s"), "s"},
      {"policy.place_ok_ratio", med("policy.place_ok_ratio"), "ratio"},
      {"policy.defer_calls", med("policy.defer_calls"), "count"},
      {"policy.defer_s", med("policy.defer_s"), "s"},
      {"plan.calls", med("plan.calls"), "count"},
      {"plan.s", med("plan.s"), "s"},
      {"plan.p50_us", med("plan.p50_us"), "us"},
      {"plan.p99_us", med("plan.p99_us"), "us"},
      {"plan.cache_hit_ratio", med("plan.cache_hit_ratio"), "ratio"},
      {"plan.cold_us", med("plan.cold_us"), "us"},
      {"budget.rebalances", med("budget.rebalances"), "count"},
      {"budget.demotions", med("budget.demotions"), "count"},
      {"budget.rebalance_us", unit.rebalance_s * 1e6, "us"},
      {"budget.composed_pct", share_pct(med("budget.rebalances"), unit.rebalance_s), "%"},
      {"gpusim.evaluate_ns", unit.evaluate_s * 1e9, "ns"},
      {"gpusim.composed_pct", share_pct(med("gpusim.evaluations_est"), unit.evaluate_s), "%"},
      {"obs.snapshots", med("obs.snapshots"), "count"},
      {"obs.snapshot_s", med("obs.snapshot_s"), "s"},
      {"obs.snapshot_ms_p50", med("obs.snapshot_ms_p50"), "ms"},
      {"obs.snapshot_ms_p99", med("obs.snapshot_ms_p99"), "ms"},
      {"obs.snapshot_bytes", med("obs.snapshot_bytes"), "bytes"},
      {"obs.charges", med("obs.charges"), "count"},
      {"obs.cells", med("obs.cells"), "count"},
      {"obs.charge_ns", unit.charge_s * 1e9, "ns"},
      {"obs.charge_composed_pct", share_pct(med("obs.charges"), unit.charge_s), "%"},
      {"econ.deferred", med("econ.deferred"), "count"},
      {"econ.charge_ns", unit.econ_charge_s * 1e9, "ns"},
      {"econ.composed_pct", share_pct(econ_charges, unit.econ_charge_s), "%"},
      {"ckpt.count", med("ckpt.count"), "count"},
      {"ckpt.bytes", med("ckpt.bytes"), "bytes"},
      {"ckpt.write_ms", med("ckpt.write_ms"), "ms"},
      {"ckpt.restore_ms", med("ckpt.restore_ms"), "ms"},
      {"ckpt.resume_s", med("ckpt.resume_s"), "s"},
      {"engine.events", med("engine.events"), "count"},
      {"engine.event_ns", unit.event_s * 1e9, "ns"},
      {"engine.composed_pct", share_pct(med("engine.events"), unit.event_s), "%"},
      {"governor.ticks_per_job", med("governor.ticks_per_job"), "count"},
      {"trace.gen_s", med("trace.gen_s"), "s"},
      {"trace.parse_s", med("trace.parse_s"), "s"},
      {"trace_overhead_pct", med("trace_overhead_pct"), "%"},
  };
  print_result(log.failed == 0, log.attempted, log.failed, out);
  return 0;
}

int run_digest(const options& o, const fs::path& base) {
  for (std::size_t k = 0; k < traces_per_run; ++k) {
    const std::uint64_t trace = trace_seed(o.seed, k);
    auto s = prepare(*o.w, job_count(o), trace, false, base / "digest");
    const auto f = run_flow(*s, true, false);
    for (const auto& why : f.failures) std::cerr << "FAIL " << o.w->name << ": " << why << '\n';
    fs::remove_all(base / "digest");
    if (!f.failures.empty()) return 1;
    std::cout << o.w->name << ' ' << trace << ' ' << f.digest << '\n';
  }
  return 0;
}

int usage(const std::string& why) {
  std::cerr << "error: " << why << "\n"
            << "usage: replay_bench --workload steady|backlog|facility|governed [--seed N]\n"
               "                    [--seconds S] [--trace 0|1] [--size full|tiny]\n"
               "                    [--work-dir DIR] [--reference FILE] [--digest] [--verbose]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        const std::string name = value();
        for (const auto& w : all_workloads())
          if (w.name == name) o.w = &w;
        if (!o.w) return usage("unknown workload " + name);
      } else if (arg == "--seed") o.seed = std::stoull(value());
      else if (arg == "--seconds") o.seconds = std::stod(value());
      else if (arg == "--trace") o.trace = value() == "1";
      else if (arg == "--size") {
        const std::string size = value();
        if (size != "full" && size != "tiny") return usage("--size must be full or tiny");
        o.tiny = size == "tiny";
      } else if (arg == "--work-dir") o.work_dir = value();
      else if (arg == "--reference") o.reference = value();
      else if (arg == "--digest") o.digest_only = true;
      else if (arg == "--verbose") o.verbose = true;
      else return usage("unknown argument " + arg);
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!o.w) return usage("--workload is required");

  const fs::path base = o.work_dir / (o.w->name + "-" + std::to_string(::getpid()));
  int rc = 0;
  if (o.digest_only) rc = run_digest(o, base);
  else if (o.trace) rc = run_traced(o, base);
  else rc = run_timed(o, base);
  fs::remove_all(base);
  return rc;
}

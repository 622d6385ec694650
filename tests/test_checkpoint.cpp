/// Checkpoint/resume tests: periodic checkpointing must be inert (a
/// checkpointed replay is byte-identical to an uncheckpointed one), every
/// mid-run artefact must restore + resume to the byte-identical final
/// summary of the uninterrupted run, node-level chaos must conserve energy
/// in the ledger, and corrupted artefacts must fail closed — structured
/// errors, never throws, never a partial restore.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "synergy/cluster/checkpoint.hpp"
#include "synergy/cluster/simulator.hpp"
#include "synergy/common/envelope.hpp"
#include "synergy/common/rng.hpp"
#include "synergy/econ/trace.hpp"
#include "synergy/guarded_planner.hpp"
#include "synergy/obs/energy_ledger.hpp"
#include "synergy/obs/slo_watchdog.hpp"
#include "synergy/obs/snapshot.hpp"
#include "synergy/telemetry/metrics_registry.hpp"

namespace sc = synergy::cluster;
namespace obs = synergy::obs;
namespace tel = synergy::telemetry;
namespace env = synergy::common::envelope;

using synergy::common::pcg32;

// Ledger charges flow through SYNERGY_CHARGE_ENERGY sites; with
// -DSYNERGY_TELEMETRY=OFF those compile to nothing, so conservation
// assertions against the ledger are skipped (byte-identity still holds).
#if SYNERGY_TELEMETRY_ENABLED
#define SYNERGY_REQUIRE_CHARGE_SITES() ((void)0)
#else
#define SYNERGY_REQUIRE_CHARGE_SITES() \
  GTEST_SKIP() << "charge sites compiled out (SYNERGY_TELEMETRY=OFF)"
#endif

namespace {

std::filesystem::path temp_dir(const char* name) {
  // ctest runs each test case as its own process, possibly in parallel; a
  // per-process suffix keeps concurrent cases out of each other's directories.
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string{name} + "." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in{p, std::ios::binary};
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

void write_file(const std::filesystem::path& p, const std::string& content) {
  std::ofstream out{p, std::ios::binary};
  out << content;
}

/// Apply one seeded mutation to `text`: bit-flip, truncation, or splice
/// (copy a chunk of the text over another position).
std::string mutate(const std::string& text, pcg32& rng) {
  if (text.empty()) return text;
  std::string out = text;
  const auto n = static_cast<std::uint32_t>(out.size());
  switch (rng.bounded(3)) {
    case 0: {  // bit flip
      const auto pos = rng.bounded(n);
      out[pos] = static_cast<char>(out[pos] ^ (1u << rng.bounded(8)));
      break;
    }
    case 1: {  // truncate
      out.resize(rng.bounded(n));
      break;
    }
    default: {  // splice
      const auto len = 1 + rng.bounded(std::max(1u, n / 4));
      const auto span = n > len ? n - len : 1;
      const auto src = rng.bounded(span);
      const auto dst = rng.bounded(span);
      out.replace(dst, len, text.substr(src, len));
      break;
    }
  }
  return out;
}

/// The replay every test here checkpoints: faults AND node chaos enabled, so
/// the serialized event heap holds every kind of pending event (device
/// faults, crashes, restarts, requeued jobs' stale completions) rather than
/// just arrivals and completions.
sc::cluster_config chaotic_config() {
  sc::cluster_config cc;
  cc.n_nodes = 6;
  cc.gpus_per_node = 4;
  cc.faults.seed = 11;
  cc.faults.clock_set_fail_rate = 0.05;
  cc.faults.power_read_dropout_rate = 0.05;
  cc.faults.device_lost_rate = 0.01;
  cc.faults.max_node_losses = 1;
  cc.chaos.seed = 77;
  cc.chaos.mtbf_s = 60.0;
  cc.chaos.restart_delay_s = 45.0;
  cc.chaos.max_crashes = 2;
  cc.obs_scrape_interval_s = 5.0;
  return cc;
}

/// `deferrable_fraction` > 0 marks jobs the cost policy may shift; at 0 the
/// generator draws nothing extra and the trace is the plain chaotic one.
sc::job_trace chaotic_trace(double deferrable_fraction = 0.0) {
  sc::trace_config tc;
  tc.n_jobs = 80;
  tc.seed = 7;
  tc.gpu_mix = {1, 1, 2, 2, 4};  // jobs must still fit a degraded inventory
  tc.deferrable_fraction = deferrable_fraction;
  tc.deadline_slack_s = 600.0;
  return sc::generate_trace(tc);
}

/// A simulator with what the test inspects beside it: the guard chain and
/// watchdog (null unless the replay attaches them).
struct replay_rig {
  std::unique_ptr<sc::simulator> sim;
  std::shared_ptr<synergy::guarded_planner> guard;
  std::shared_ptr<obs::slo_watchdog> watchdog;
};

/// A replay the resume sweep checkpoints, by name:
///  - "chaotic": chaotic_config() under the energy policy;
///  - "econ_capped": the same faults and chaos under the cost policy, with a
///    periodic two-step tariff, deferrable jobs and a binding facility cap,
///    so econ ticks, deferrals and cap demotions are in flight throughout;
///  - "guarded": chaotic_config() planned through make_guarded_suite_planner
///    over a model directory that does not exist (every plan is a table
///    fallback),
///    with a watchdog attached, so the guard, plan-cache and watchdog
///    sections ride every artefact;
///  - "odd_names": the chaotic replay with job names that hold a space, '%',
///    '~', TAB, a control byte and multi-byte UTF-8, and one empty name. A
///    job's name reaches the payload only through its ledger cells' keys,
///    so each string escape of the payload encoder rides every artefact
///    that holds a cell of a job with that name.
struct replay_case {
  sc::cluster_config cc;
  sc::job_trace trace;
  bool guarded{false};
  /// (name prefix, its escape): an artefact holding a ledger cell of a job
  /// whose name starts with the prefix must hold the escape.
  std::vector<std::pair<std::string, std::string>> escapes;
  /// The guarded replay's watchdog rules: both fire once (the table tier
  /// plans everything; chaos wastes energy).
  std::string rules{"fallback_ratio > 0.5 window 4\nwasted_energy_j > 0\n"};

  /// A fresh simulator for this case; `opts` turns checkpointing on (the
  /// guarded replay adds its guard and plan service to them). The cost
  /// policy reads `cc.econ`, so the case must outlive every simulator built
  /// on it.
  replay_rig rig(std::optional<sc::checkpoint_options> opts = std::nullopt) const {
    replay_rig r;
    if (!guarded) {
      const auto plan = sc::make_suite_planner(cc.device);
      r.sim = std::make_unique<sc::simulator>(
          cc, cc.econ.enabled ? sc::make_cost_aware(&cc.econ, plan) : sc::make_energy_aware(plan));
    } else {
      const auto no_models = std::filesystem::temp_directory_path() / "synergy_ckpt_no_models";
      auto planner = sc::make_guarded_suite_planner(cc.device, no_models);
      r.guard = planner.guard;
      r.sim = std::make_unique<sc::simulator>(cc, sc::make_energy_aware(planner.plan));
      auto parsed = obs::parse_rules(rules);
      EXPECT_TRUE(parsed.has_value());
      r.watchdog = std::make_shared<obs::slo_watchdog>(std::move(parsed).value(),
                                                       &obs::energy_ledger::instance());
      r.sim->attach_observability(r.watchdog, r.guard);
      if (opts) {
        opts->guard = planner.guard;
        opts->service = planner.service;
      }
    }
    if (opts) r.sim->set_checkpointing(std::move(*opts));
    return r;
  }
};

replay_case replay_named(const std::string& name) {
  replay_case rc{chaotic_config(), chaotic_trace()};
  rc.guarded = name == "guarded";
  if (name == "econ_capped") {
    const auto two_step = [](double high, double low) {
      return synergy::econ::step_trace{{{0.0, high}, {100.0, low}}, 200.0};
    };
    rc.cc.econ.enabled = true;
    rc.cc.econ.capex_usd_per_node_hour = 0.05;
    rc.cc.econ.price = two_step(0.30, 0.05);
    rc.cc.econ.carbon = two_step(600.0, 100.0);
    rc.cc.econ.defer_price_ratio = 1.0;
    rc.cc.econ.demote_price_ratio = 1.3;
    rc.cc.facility_cap_w = 5000.0;
    rc.trace = chaotic_trace(0.5);
  }
  if (name == "odd_names") {
    const std::string utf8 = "na\xc3\xafve-\xe2\x9c\x93";
    const std::vector<std::string> odd{"job one", "100%", "~", "tab\there", "ctl\x01", utf8};
    for (auto& j : rc.trace.jobs) j.name = odd[j.id % odd.size()] + std::to_string(j.id);
    rc.trace.jobs[3].name.clear();
    // Multi-byte UTF-8 is copied verbatim; the rest escape as %XX.
    const std::vector<std::string> escaped{"job%20one", "100%25", "%7e",
                                           "tab%09here", "ctl%01", utf8};
    for (std::size_t i = 0; i < odd.size(); ++i) rc.escapes.emplace_back(odd[i], escaped[i]);
  }
  return rc;
}

std::string csv_of(const sc::run_summary& summary) {
  std::ostringstream os;
  summary.csv(os);
  return os.str();
}

/// Render the global ledger with pinned sequence/time so two renders differ
/// only if the accounting itself differs.
std::string ledger_json() {
  obs::snapshot_options opts;
  opts.sequence = 1;
  opts.time_s = 0.0;
  return obs::render_json(obs::energy_ledger::instance(), nullptr, opts);
}

/// Arm a fresh simulator for restore_checkpoint() without periodic
/// checkpointing (interval 0: restore/resume only).
void enable_restore(sc::simulator& sim) { sim.set_checkpointing(sc::checkpoint_options{}); }

/// Periodic checkpointing into `dir` every 20 virtual seconds.
sc::checkpoint_options every_20s(const std::filesystem::path& dir) {
  sc::checkpoint_options opts;
  opts.interval_s = 20.0;
  opts.dir = dir;
  return opts;
}

std::string alerts_jsonl(const obs::slo_watchdog& watchdog) {
  std::string out;
  for (const auto& a : watchdog.alerts()) out += a.to_json_line() + "\n";
  return out;
}

void reset_globals() {
  obs::energy_ledger::instance().reset();
  obs::energy_ledger::instance().set_enabled(true);
  tel::metrics_registry::instance().reset_values();
}

class checkpoint_test : public ::testing::Test {
 protected:
  void SetUp() override { reset_globals(); }
  void TearDown() override { obs::energy_ledger::instance().reset(); }
};

/// Sorted list of checkpoint artefacts in `dir`.
std::vector<std::filesystem::path> checkpoint_files(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.is_regular_file()) files.push_back(e.path());
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in{text};
  while (std::getline(in, part, sep)) parts.push_back(part);
  return parts;
}

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) out += (i ? std::string(1, sep) : "") + parts[i];
  return out;
}

/// A payload as lines of space-separated tokens, and back.
using rows_t = std::vector<std::vector<std::string>>;

rows_t tokens_of(const std::string& payload) {
  rows_t rows;
  for (const auto& line : split(payload, '\n')) rows.push_back(split(line, ' '));
  return rows;
}

std::string payload_of(const rows_t& rows) {
  std::vector<std::string> lines;
  for (const auto& r : rows) lines.push_back(join(r, ' '));
  return join(lines, '\n');
}

/// Index of the first row tagged `tag`, or rows.size().
std::size_t first_row(const rows_t& rows, const std::string& tag) {
  for (std::size_t i = 0; i < rows.size(); ++i)
    if (!rows[i].empty() && rows[i][0] == tag) return i;
  return rows.size();
}

/// Append `row` to section `sect` (`<sect> <n>` and its n rows), counting
/// it in the section header.
void append_row(rows_t& rows, const std::string& sect, std::vector<std::string> row) {
  const std::size_t header = first_row(rows, sect);
  const std::size_t n = std::stoul(rows[header][1]);
  rows[header][1] = std::to_string(n + 1);
  rows.insert(rows.begin() + static_cast<std::ptrdiff_t>(header + 1 + n), std::move(row));
}

/// Index of the trace row token in a `runj` row: after the tag, the epoch
/// and the counted GPU list (`<n> (<node> <gpu>)...`).
std::size_t runj_job_token(const std::vector<std::string>& runj) {
  return 3 + 2 * std::stoul(runj[2]);
}

/// Run the chaotic replay with a checkpoint every 20 virtual seconds into
/// `dir`.
void checkpoint_chaotic_replay(const std::filesystem::path& dir) {
  const auto cc = chaotic_config();
  sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  sim.set_checkpointing(every_20s(dir));
  (void)sim.run(chaotic_trace());
}

/// Restore `payload` of the chaotic replay into a fresh simulator.
synergy::common::status restore_chaotic(const std::string& payload) {
  reset_globals();
  const auto cc = chaotic_config();
  sc::simulator fresh{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  enable_restore(fresh);
  return fresh.restore_checkpoint(payload, chaotic_trace());
}

}  // namespace

// ------------------------------------------------- checkpointing is inert ----

TEST_F(checkpoint_test, PeriodicCheckpointingDoesNotPerturbTheReplay) {
  const auto trace = chaotic_trace();
  const auto cc = chaotic_config();

  sc::simulator ref{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  const auto csv_ref = csv_of(ref.run(trace));
  const auto json_ref = ledger_json();

  const auto dir = temp_dir("synergy_ckpt_inert");
  reset_globals();
  sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  sc::checkpoint_options opts;
  opts.interval_s = 20.0;
  opts.dir = dir;
  sim.set_checkpointing(std::move(opts));
  const auto csv_ckpt = csv_of(sim.run(trace));

  // The checkpoint tick is a pure observer: byte-identical summary and
  // byte-identical ledger accounting, with artefacts actually on disk.
  EXPECT_EQ(csv_ckpt, csv_ref);
  EXPECT_EQ(ledger_json(), json_ref);
  EXPECT_GE(sim.checkpoints_written(), 3u);
  EXPECT_GE(checkpoint_files(dir).size(), 3u);

  std::filesystem::remove_all(dir);
}

// ------------------------------------------------ resume byte-identity ----

class resume_sweep : public checkpoint_test,
                     public ::testing::WithParamInterface<std::string> {};

TEST_P(resume_sweep, EveryMidRunCheckpointResumesByteIdentical) {
  const auto rc = replay_named(GetParam());
  // Names reach an artefact only through ledger cells; without charge
  // sites, odd_names would replay "chaotic" again.
  if (!rc.escapes.empty()) SYNERGY_REQUIRE_CHARGE_SITES();
  const auto& trace = rc.trace;
  const auto& cc = rc.cc;

  const auto ref = rc.rig();
  const auto summary_ref = ref.sim->run(trace);
  const auto csv_ref = csv_of(summary_ref);
  const auto json_ref = ledger_json();
  ASSERT_EQ(summary_ref.completed + summary_ref.failed, trace.jobs.size());
  if (cc.econ.enabled) {
    ASSERT_GT(summary_ref.econ_jobs_deferred, 0u);
    ASSERT_GT(summary_ref.econ_price_demotions, 0u);
    ASSERT_GT(summary_ref.cap_demotions, 0u);
  }
  if (rc.guarded) {
    ASSERT_GT(ref.guard->table_fallbacks(), 0u);
    ASSERT_EQ(ref.watchdog->alerts().size(), 2u);
  }

  const auto dir = temp_dir(("synergy_ckpt_resume_" + GetParam()).c_str());
  reset_globals();
  ASSERT_EQ(csv_of(rc.rig(every_20s(dir)).sim->run(trace)), csv_ref);
  const auto files = checkpoint_files(dir);
  ASSERT_GE(files.size(), 3u);

  std::vector<bool> escape_seen(rc.escapes.size(), false);
  for (const auto& file : files) {
    const auto payload = sc::read_checkpoint_payload(file);
    ASSERT_TRUE(payload.has_value()) << file << ": " << payload.err().message;

    // Dirty the globals first: a restore must overwrite, not merge.
    reset_globals();
    obs::energy_ledger::instance().charge({"stale", "V100", "job", "k"},
                                          obs::cause::idle, 1234.5);

    const auto rig = rc.rig(sc::checkpoint_options{});
    auto& resumed = *rig.sim;
    // Restore the first artefact before the others: a restore replaces the
    // running jobs and the GPUs they hold, it does not add to them.
    if (file != files.front()) {
      const auto first = sc::read_checkpoint_payload(files.front());
      ASSERT_TRUE(first.has_value() && resumed.restore_checkpoint(first.value(), trace).ok());
    }
    const auto st = resumed.restore_checkpoint(payload.value(), trace);
    ASSERT_TRUE(st.ok()) << file << ": " << st.err().message;
    for (const auto& cell : obs::energy_ledger::instance().entries())
      for (std::size_t i = 0; i < rc.escapes.size(); ++i)
        if (cell.key.job.starts_with(rc.escapes[i].first)) {
          escape_seen[i] = true;
          EXPECT_NE(payload.value().find(rc.escapes[i].second), std::string::npos)
              << rc.escapes[i].second << " in " << file;
        }
    // Round trip: the restored state writes the artefact it was read from.
    // (No crash injection is pending here, so the written events are the
    // whole heap.)
    EXPECT_EQ(resumed.serialize_checkpoint(), payload.value()) << "round trip of " << file;
    const auto summary = resumed.resume(trace);

    // Byte-identical summary CSV and ledger snapshot from any resume point.
    EXPECT_EQ(csv_of(summary), csv_ref) << "resumed from " << file;
    EXPECT_EQ(ledger_json(), json_ref) << "resumed from " << file;
    const auto& ref_results = ref.sim->results();
    ASSERT_EQ(resumed.results().size(), ref_results.size());
    for (std::size_t i = 0; i < ref_results.size(); ++i) {
      EXPECT_EQ(resumed.results()[i].state, ref_results[i].state);
      // Exact double equality on purpose: the contract is bit-identity.
      EXPECT_EQ(resumed.results()[i].gpu_energy_j, ref_results[i].gpu_energy_j);
      EXPECT_EQ(resumed.results()[i].end_s, ref_results[i].end_s);
      EXPECT_EQ(resumed.results()[i].requeues, ref_results[i].requeues);
    }
    if (rc.guarded) {
      EXPECT_EQ(rig.guard->table_fallbacks(), ref.guard->table_fallbacks()) << file;
      EXPECT_EQ(alerts_jsonl(*rig.watchdog), alerts_jsonl(*ref.watchdog)) << file;
    }
  }
  for (std::size_t i = 0; i < rc.escapes.size(); ++i)
    EXPECT_TRUE(escape_seen[i]) << "no artefact holds a cell of " << rc.escapes[i].second;

  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Replays, resume_sweep,
                         ::testing::Values("chaotic", "econ_capped", "guarded", "odd_names"),
                         [](const auto& info) { return info.param; });

// ------------------------------------------------ repeated runs ----

TEST_F(checkpoint_test, SecondRunOnOneSimulatorReplaysTheFirst) {
  const auto trace = chaotic_trace();
  auto cc = chaotic_config();
  cc.faults.device_lost_rate = 0.0;  // only crashes, and every one restarts
  sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  reset_globals();  // drop the planner compile's metrics from the snapshot

  const auto csv_first = csv_of(sim.run(trace));
  const auto json_first = ledger_json();
  // The run ends with the full node count, but restarted nodes re-joined at
  // the back of the inventory.
  ASSERT_EQ(sim.controller().node_count(), cc.n_nodes);
  bool reordered = false;
  for (std::size_t i = 0; i < cc.n_nodes; ++i)
    reordered |= sim.controller().node_at(i).name() != "cn00" + std::to_string(i);
  ASSERT_TRUE(reordered);

  // The second run starts from the configured inventory, so every ledger
  // charge lands on the same node names as the first run's.
  reset_globals();
  EXPECT_EQ(csv_of(sim.run(trace)), csv_first);
  EXPECT_EQ(ledger_json(), json_first);
}

// -------------------------------------------- chaos conserves the ledger ----

TEST_F(checkpoint_test, NodeChaosReplaysConserveEnergyAcrossResume) {
  SYNERGY_REQUIRE_CHARGE_SITES();
  const auto trace = chaotic_trace();
  const auto cc = chaotic_config();

  const auto dir = temp_dir("synergy_ckpt_chaos");
  sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  sc::checkpoint_options opts;
  opts.interval_s = 20.0;
  opts.dir = dir;
  sim.set_checkpointing(std::move(opts));
  const auto summary = sim.run(trace);

  // The chaos plan actually fired and lost no work.
  ASSERT_GT(summary.node_crashes, 0u);
  ASSERT_GT(summary.node_restarts, 0u);
  EXPECT_EQ(summary.completed + summary.failed, trace.jobs.size());
  EXPECT_GT(summary.wasted_gpu_energy_j, 0.0);

  // Ledger conservation: every simulated joule (busy + crash-wasted) lands
  // in the ledger exactly once, within 0.1% for accumulation order.
  const auto check_conservation = [&](const sc::run_summary& s) {
    auto& l = obs::energy_ledger::instance();
    const double simulated = s.total_gpu_energy_j + s.wasted_gpu_energy_j;
    ASSERT_GT(simulated, 0.0);
    EXPECT_NEAR(l.total_j(), simulated, 1e-3 * simulated);
    double cause_sum = 0.0;
    for (const double c : l.totals_by_cause()) cause_sum += c;
    EXPECT_NEAR(cause_sum, l.total_j(), 1e-9 * std::max(1.0, l.total_j()));
    EXPECT_NEAR(l.totals_by_cause()[static_cast<std::size_t>(obs::cause::fault_wasted)],
                s.wasted_gpu_energy_j, 1e-6 * std::max(1.0, s.wasted_gpu_energy_j));
  };
  check_conservation(summary);

  // And conservation survives a restore + resume from the latest artefact.
  const auto latest = sc::latest_checkpoint(dir);
  ASSERT_TRUE(latest.has_value()) << latest.err().message;
  const auto payload = sc::read_checkpoint_payload(latest.value());
  ASSERT_TRUE(payload.has_value()) << payload.err().message;
  reset_globals();
  sc::simulator resumed{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  enable_restore(resumed);
  ASSERT_TRUE(resumed.restore_checkpoint(payload.value(), trace).ok());
  const auto summary2 = resumed.resume(trace);
  EXPECT_EQ(summary2.node_crashes, summary.node_crashes);
  EXPECT_EQ(summary2.node_restarts, summary.node_restarts);
  check_conservation(summary2);

  std::filesystem::remove_all(dir);
}

TEST_F(checkpoint_test, DeviceLossesAndCrashesInOneReplayShareTheLossPath) {
  // Both ways a node leaves the inventory in one replay: device-lost faults
  // remove nodes for good, chaos crashes remove nodes that restart later.
  const auto trace = chaotic_trace();
  auto cc = chaotic_config();
  cc.faults.device_lost_rate = 0.1;
  cc.faults.max_node_losses = 2;
  cc.chaos.max_crashes = 3;
  sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  const auto summary = sim.run(trace);

  ASSERT_GT(summary.nodes_lost, 0u);
  ASSERT_GT(summary.node_crashes, 0u);
  ASSERT_GT(summary.node_restarts, 0u);
  EXPECT_EQ(sim.controller().node_count(),
            cc.n_nodes - summary.nodes_lost - summary.node_crashes + summary.node_restarts);
  EXPECT_EQ(summary.completed + summary.failed, trace.jobs.size());
  EXPECT_GT(summary.requeues, 0u);

  // Every requeued job's partial joules are booked as fault-wasted, whichever
  // cause drained its node.
  SYNERGY_REQUIRE_CHARGE_SITES();
  EXPECT_DOUBLE_EQ(obs::energy_ledger::instance()
                       .totals_by_cause()[static_cast<std::size_t>(obs::cause::fault_wasted)],
                   summary.wasted_gpu_energy_j);
}

// ------------------------------------ a deferred job that fails queued ----

namespace {

/// Wraps a policy and records the id of every job a defer() verdict held.
/// name() and backfills() delegate, so the checkpoint fingerprint matches
/// the bare policy's.
class deferral_probe final : public sc::scheduling_policy {
 public:
  explicit deferral_probe(std::unique_ptr<sc::scheduling_policy> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool backfills() const override { return inner_->backfills(); }
  [[nodiscard]] bool defer(const sc::queued_job& job, const sc::cluster_view& view) const override {
    const bool held = inner_->defer(job, view);
    if (held) deferred.insert(job.job.id);
    return held;
  }
  std::optional<sc::placement> place(const sc::queued_job& job,
                                     const sc::cluster_view& view) override {
    return inner_->place(job, view);
  }

  mutable std::set<int> deferred;

 private:
  std::unique_ptr<sc::scheduling_policy> inner_;
};

}  // namespace

TEST_F(checkpoint_test, ADeferredJobThatFailsInTheQueueLeavesLaterArtefactsRestorable) {
  // The tariff defers jobs under the cost policy, and the drift onset at
  // 60 s lifts the floor of some deferred job above the 2,600 W cap, so it
  // fails in the queue. Nothing of its deferral may outlive its queue entry:
  // a deferred id left behind once made restore refuse every later
  // artefact.
  sc::cluster_config cc;
  cc.n_nodes = 4;
  cc.gpus_per_node = 4;
  cc.facility_cap_w = 2600.0;
  cc.drift.at_s = 60.0;
  cc.drift.power_skew = 1.8;
  cc.econ.enabled = true;
  synergy::econ::synthetic_config tariff;
  tariff.seed = 3;
  tariff.period_s = 240.0;
  tariff.step_s = 10.0;
  tariff.noise = 0.01;
  cc.econ.price = synergy::econ::synthetic_diurnal(tariff);
  tariff.stream = 1;
  tariff.base = 300.0;
  tariff.amplitude = 120.0;
  tariff.noise = 20.0;
  cc.econ.carbon = synergy::econ::synthetic_diurnal(tariff);
  sc::trace_config tc;
  tc.n_jobs = 120;
  tc.mean_interarrival_s = 1.0;
  tc.seed = 3;
  tc.deferrable_fraction = 0.6;
  const auto trace = sc::generate_trace(tc);
  const auto cost_policy = [&] {
    return sc::make_cost_aware(&cc.econ, sc::make_suite_planner(cc.device));
  };

  sc::simulator ref{cc, cost_policy()};
  const auto csv_ref = csv_of(ref.run(trace));
  const auto json_ref = ledger_json();

  const auto dir = temp_dir("synergy_ckpt_failed_deferral");
  reset_globals();
  auto probe = std::make_unique<deferral_probe>(cost_policy());
  const auto& deferred = probe->deferred;
  sc::simulator sim{cc, std::move(probe)};
  sim.set_checkpointing(every_20s(dir));
  ASSERT_EQ(csv_of(sim.run(trace)), csv_ref);

  // A job the policy deferred that then failed with the cap's reason.
  std::size_t failed_row = trace.jobs.size();
  for (std::size_t i = 0; i < trace.jobs.size() && failed_row == trace.jobs.size(); ++i)
    if (deferred.contains(trace.jobs[i].id) &&
        sim.results()[i].failure_reason == "power cap below the job's minimum draw")
      failed_row = i;
  ASSERT_LT(failed_row, trace.jobs.size()) << "no deferred job failed in the queue";

  const auto files = checkpoint_files(dir);
  std::size_t after_failure = 0;
  for (const auto& file : files) {
    const auto payload = sc::read_checkpoint_payload(file);
    ASSERT_TRUE(payload.has_value()) << file;
    reset_globals();
    sc::simulator resumed{cc, cost_policy()};
    enable_restore(resumed);
    const auto st = resumed.restore_checkpoint(payload.value(), trace);
    ASSERT_TRUE(st.ok()) << file << ": " << st.err().message;
    if (resumed.results()[failed_row].state == synergy::sched::job_state::failed) ++after_failure;
    if (file != files.back()) continue;
    EXPECT_EQ(csv_of(resumed.resume(trace)), csv_ref) << "resumed from " << file;
    EXPECT_EQ(ledger_json(), json_ref) << "resumed from " << file;
  }
  EXPECT_GT(after_failure, 0u) << "no artefact was written after the failure";

  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- fail-closed restores ----

TEST_F(checkpoint_test, RestoreRejectsWrongTraceAndWrongCluster) {
  const auto trace = chaotic_trace();
  const auto cc = chaotic_config();

  sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  sc::checkpoint_options opts;
  opts.interval_s = 20.0;
  opts.dir = temp_dir("synergy_ckpt_reject");
  const auto dir = opts.dir;
  sim.set_checkpointing(std::move(opts));
  (void)sim.run(trace);
  const auto latest = sc::latest_checkpoint(dir);
  ASSERT_TRUE(latest.has_value());
  const auto payload = sc::read_checkpoint_payload(latest.value());
  ASSERT_TRUE(payload.has_value());

  // Different trace: the recorded trace CRC must not match.
  auto other_trace = chaotic_trace();
  other_trace.jobs[0].iterations += 1;
  {
    reset_globals();
    sc::simulator fresh{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
    enable_restore(fresh);
    const auto st = fresh.restore_checkpoint(payload.value(), other_trace);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.err().message.find("trace"), std::string::npos) << st.err().message;
  }

  // A row the loader rejects is rejected as such, before the trace CRC.
  auto bad_row = chaotic_trace();
  bad_row.jobs[0].n_gpus = 0;
  {
    reset_globals();
    sc::simulator fresh{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
    enable_restore(fresh);
    const auto st = fresh.restore_checkpoint(payload.value(), bad_row);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.err().message.find("invalid job row"), std::string::npos) << st.err().message;
  }

  // Different cluster shape: the config fingerprint must not match.
  auto other_cc = cc;
  other_cc.n_nodes += 1;
  {
    reset_globals();
    sc::simulator fresh{other_cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
    enable_restore(fresh);
    const auto st = fresh.restore_checkpoint(payload.value(), trace);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.err().message.find("fingerprint"), std::string::npos) << st.err().message;
  }

  // Another payload schema fails closed: a schema-3 artefact copies trace
  // columns into its job rows and keeps an `edef` section this layout does
  // not read.
  {
    auto rows = tokens_of(payload.value());
    ASSERT_EQ(rows[0], (std::vector<std::string>{"synergy_ckpt", "4"}));
    rows[0][1] = "3";
    const auto st = restore_chaotic(payload_of(rows));
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.err().message.find("unknown payload schema version"), std::string::npos)
        << st.err().message;
  }

  std::filesystem::remove_all(dir);
}

TEST_F(checkpoint_test, RestoreRejectsRowsPastTheTrace) {
  const auto dir = temp_dir("synergy_ckpt_rows");
  checkpoint_chaotic_replay(dir);

  // An artefact with a running and a queued job, whose completion is an
  // `ev <t> <seq> <kind> <row> <epoch>` row of kind 1.
  const auto completion_row = [](const rows_t& r) {
    for (std::size_t i = 0; i < r.size(); ++i)
      if (r[i][0] == "ev" && r[i][3] == "1") return i;
    return r.size();
  };
  rows_t rows;
  for (const auto& file : checkpoint_files(dir)) {
    const auto p = sc::read_checkpoint_payload(file);
    ASSERT_TRUE(p.has_value());
    rows = tokens_of(p.value());
    if (first_row(rows, "runj") < rows.size() && first_row(rows, "q") < rows.size()) break;
  }
  ASSERT_LT(first_row(rows, "runj"), rows.size()) << "no artefact with a running job";
  ASSERT_LT(first_row(rows, "q"), rows.size()) << "no artefact with a queued job";
  ASSERT_LT(completion_row(rows), rows.size()) << "no artefact with a pending completion";
  ASSERT_TRUE(restore_chaotic(payload_of(rows)).ok());

  // Set the row of the first `q` row, the first `runj` row and the first
  // completion to the trace's size: still a well-formed payload, as a
  // re-sealed artefact would be. A queue row starts with its row; a running
  // job's follows its epoch and GPUs.
  const std::string past = std::to_string(chaotic_trace().jobs.size());
  struct edit {
    std::size_t row;
    std::size_t token;
    const char* named;
  };
  const std::size_t runj = first_row(rows, "runj");
  const std::size_t q = first_row(rows, "q");
  const std::size_t ev = completion_row(rows);
  for (const auto& [row, token, named] : {edit{q, 1, "queue: row "},
                                           edit{runj, runj_job_token(rows[runj]), "running: row "},
                                           edit{ev, 4, "events: pending event"}}) {
    auto bad = rows;
    bad[row][token] = past;
    const auto st = restore_chaotic(payload_of(bad));
    ASSERT_FALSE(st.ok()) << named;
    EXPECT_NE(st.err().message.find(named), std::string::npos) << st.err().message;
  }

  std::filesystem::remove_all(dir);
}

TEST_F(checkpoint_test, RestoreRejectsGpusHeldTwiceOrPastTheInventory) {
  const auto dir = temp_dir("synergy_ckpt_gpus");
  checkpoint_chaotic_replay(dir);

  // An artefact with two running jobs, as lines of tokens:
  // `runj <epoch> <n> (<node> <gpu>)... <job>...`.
  rows_t rows;
  std::vector<std::size_t> runj;
  for (const auto& file : checkpoint_files(dir)) {
    const auto p = sc::read_checkpoint_payload(file);
    ASSERT_TRUE(p.has_value());
    rows = tokens_of(p.value());
    runj.clear();
    for (std::size_t i = 0; i < rows.size(); ++i)
      if (rows[i][0] == "runj") runj.push_back(i);
    if (runj.size() >= 2) break;
  }
  ASSERT_GE(runj.size(), 2u) << "no artefact with two running jobs";
  const std::string nodes = rows[first_row(rows, "nodes")][1];
  const std::string gpus_per_node = std::to_string(chaotic_config().gpus_per_node);

  const auto expect_rejected = [&](const char* what, const auto& mutate, const char* named) {
    auto bad = rows;
    mutate(bad);
    const auto st = restore_chaotic(payload_of(bad));
    ASSERT_FALSE(st.ok()) << what;
    EXPECT_NE(st.err().message.find(named), std::string::npos) << what << ": " << st.err().message;
  };
  // Two running jobs on one GPU: the scheduler would believe it free once
  // either completes.
  expect_rejected("GPU held twice", [&](rows_t& r) {
    r[runj[1]][3] = r[runj[0]][3];
    r[runj[1]][4] = r[runj[0]][4];
  }, "another running job holds");
  // A GPU on a node past the inventory, and one past its node's GPUs.
  expect_rejected("node past the inventory", [&](rows_t& r) { r[runj[0]][3] = nodes; },
                  "GPU slot out of range");
  expect_rejected("GPU past the node", [&](rows_t& r) { r[runj[0]][4] = gpus_per_node; },
                  "GPU slot out of range");

  std::filesystem::remove_all(dir);
}

TEST_F(checkpoint_test, RestoreRejectsJobsWhosePhaseDisagrees) {
  const auto dir = temp_dir("synergy_ckpt_phase");
  checkpoint_chaotic_replay(dir);

  // A job's phase is its result row's state (`res <state> ...`, 0 pending,
  // 1 running, 2 completed) and where it sits: in the queue or among the
  // running jobs. Take an artefact with a queued, a running and a completed
  // job.
  const auto completed_row = [](const rows_t& r) {
    for (std::size_t i = 0; i < r.size(); ++i)
      if (r[i][0] == "res" && r[i][1] == "2") return i;
    return r.size();
  };
  rows_t rows;
  for (const auto& file : checkpoint_files(dir)) {
    const auto p = sc::read_checkpoint_payload(file);
    ASSERT_TRUE(p.has_value());
    rows = tokens_of(p.value());
    if (first_row(rows, "q") < rows.size() && first_row(rows, "runj") < rows.size() &&
        completed_row(rows) < rows.size())
      break;
  }
  ASSERT_LT(first_row(rows, "q"), rows.size()) << "no artefact with a queued job";
  ASSERT_LT(first_row(rows, "runj"), rows.size()) << "no artefact with a running job";
  ASSERT_LT(completed_row(rows), rows.size()) << "no artefact with a completed job";
  ASSERT_TRUE(restore_chaotic(payload_of(rows)).ok());

  const auto enqueue = [](rows_t& r, std::vector<std::string> row) {
    append_row(r, "queue", std::move(row));
  };
  const auto expect_rejected = [&](const char* what, const auto& mutate, const char* named) {
    auto bad = rows;
    mutate(bad);
    const auto st = restore_chaotic(payload_of(bad));
    ASSERT_FALSE(st.ok()) << what;
    EXPECT_NE(st.err().message.find(named), std::string::npos) << what << ": " << st.err().message;
  };
  // Each payload would resume into accounting that does not add up: a job
  // queued twice, or queued while it runs, runs twice, and a row left
  // running never completes.
  const char* not_pending = "appears twice or its result row is not pending";
  expect_rejected("repeated queue row", [&](rows_t& r) { enqueue(r, r[first_row(r, "q")]); },
                  not_pending);
  expect_rejected("running job also queued", [&](rows_t& r) {
    // A queue row is the trace row and its estimate, as a running job holds
    // them after its GPUs, and the deferral flag.
    const auto& runj = r[first_row(r, "runj")];
    const auto job = runj.begin() + static_cast<std::ptrdiff_t>(runj_job_token(runj));
    std::vector<std::string> q{"q"};
    q.insert(q.end(), job, job + 2);
    q.emplace_back("0");
    enqueue(r, std::move(q));
  }, not_pending);
  expect_rejected("completed row set to running", [&](rows_t& r) { r[completed_row(r)][1] = "1"; },
                  "without a running job");

  std::filesystem::remove_all(dir);
}

TEST_F(checkpoint_test, RestoreRejectsARepeatedNodeName) {
  const auto dir = temp_dir("synergy_ckpt_node_names");
  checkpoint_chaotic_replay(dir);

  // An artefact whose inventory holds cn000 and cn002.
  const auto node_row = [](const rows_t& r, const char* name) {
    for (std::size_t i = 0; i < r.size(); ++i)
      if (r[i][0] == "node" && r[i][1] == name) return i;
    return r.size();
  };
  rows_t rows;
  for (const auto& file : checkpoint_files(dir)) {
    const auto p = sc::read_checkpoint_payload(file);
    ASSERT_TRUE(p.has_value());
    rows = tokens_of(p.value());
    if (node_row(rows, "cn000") < rows.size() && node_row(rows, "cn002") < rows.size()) break;
  }
  ASSERT_LT(node_row(rows, "cn002"), rows.size()) << "no artefact with cn000 and cn002";
  ASSERT_TRUE(restore_chaotic(payload_of(rows)).ok());

  // cn002 renamed cn000: the summary would resume unchanged, but the ledger
  // would book cn002's joules on cn000.
  rows[node_row(rows, "cn002")][1] = "cn000";
  const auto st = restore_chaotic(payload_of(rows));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.err().message.find("nodes: node cn000 appears twice"), std::string::npos)
      << st.err().message;

  std::filesystem::remove_all(dir);
}

TEST_F(checkpoint_test, RestoreRejectsRestartsOfNodesThatAreUpOrAlreadyRestarting) {
  const auto dir = temp_dir("synergy_ckpt_restarts");
  checkpoint_chaotic_replay(dir);

  // Events are `ev <t> <seq> <kind> <id> <epoch>`; a node restart is kind 5
  // and names the node's ordinal. Take an artefact with cn000 up and a
  // pending restart.
  const auto restart_row = [](const rows_t& r) {
    for (std::size_t i = 0; i < r.size(); ++i)
      if (r[i][0] == "ev" && r[i][3] == "5") return i;
    return r.size();
  };
  const auto cn000_up = [](const rows_t& r) {
    return std::any_of(r.begin(), r.end(), [](const auto& row) {
      return row[0] == "node" && row[1] == "cn000";
    });
  };
  rows_t rows;
  for (const auto& file : checkpoint_files(dir)) {
    const auto p = sc::read_checkpoint_payload(file);
    ASSERT_TRUE(p.has_value());
    rows = tokens_of(p.value());
    if (restart_row(rows) < rows.size() && cn000_up(rows)) break;
  }
  ASSERT_LT(restart_row(rows), rows.size()) << "no artefact with a pending restart";
  ASSERT_TRUE(cn000_up(rows));
  ASSERT_TRUE(restore_chaotic(payload_of(rows)).ok());

  const auto expect_rejected = [&](const char* what, std::vector<std::string> ev) {
    auto bad = rows;
    append_row(bad, "events", std::move(ev));
    const auto st = restore_chaotic(payload_of(bad));
    ASSERT_FALSE(st.ok()) << what;
    EXPECT_NE(st.err().message.find("which is up or already restarting"), std::string::npos)
        << what << ": " << st.err().message;
  };
  // A restart of cn000 while it is up would add a second cn000 to the
  // inventory.
  auto up = rows[restart_row(rows)];
  up[4] = "0";
  expect_rejected("restart of a node that is up", up);
  // So would a second restart of a node that is down.
  expect_rejected("second restart of a node that is down", rows[restart_row(rows)]);

  std::filesystem::remove_all(dir);
}

TEST_F(checkpoint_test, RestoreRejectsRunningJobsOutOfEpochOrder) {
  const auto trace = chaotic_trace();
  const auto cc = chaotic_config();
  const auto dir = temp_dir("synergy_ckpt_epochs");
  {
    sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
    sim.set_checkpointing(every_20s(dir));
    (void)sim.run(trace);
  }

  // A mid-run artefact with two running jobs, one `runj` line each.
  std::vector<std::string> lines;
  std::vector<std::size_t> runj;
  for (const auto& file : checkpoint_files(dir)) {
    const auto p = sc::read_checkpoint_payload(file);
    ASSERT_TRUE(p.has_value());
    lines = split(p.value(), '\n');
    runj.clear();
    for (std::size_t i = 0; i < lines.size(); ++i)
      if (lines[i].starts_with("runj ")) runj.push_back(i);
    if (runj.size() >= 2) break;
  }
  ASSERT_GE(runj.size(), 2u) << "no artefact with two running jobs";
  const auto restore = [&](const std::string& payload) {
    reset_globals();
    sc::simulator fresh{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
    enable_restore(fresh);
    return fresh.restore_checkpoint(payload, trace);
  };
  ASSERT_TRUE(restore(join(lines, '\n')).ok());

  // The same jobs in the other order, sealed again as a tool would: the slot
  // table still agrees, but the epoch search would miss their completions.
  std::swap(lines[runj[0]], lines[runj[1]]);
  const auto resealed = dir / "swapped.ckpt";
  ASSERT_TRUE(sc::write_checkpoint_file(resealed, join(lines, '\n')).ok());
  const auto payload = sc::read_checkpoint_payload(resealed);
  ASSERT_TRUE(payload.has_value());
  const auto st = restore(payload.value());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.err().message.find("epoch order"), std::string::npos) << st.err().message;

  std::filesystem::remove_all(dir);
}

TEST_F(checkpoint_test, RestoreRejectsLedgerCellsOutOfKeyOrder) {
  SYNERGY_REQUIRE_CHARGE_SITES();
  const auto trace = chaotic_trace();
  const auto cc = chaotic_config();
  const auto dir = temp_dir("synergy_ckpt_ledger_order");
  {
    sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
    sim.set_checkpointing(every_20s(dir));
    (void)sim.run(trace);
  }
  const auto latest = sc::latest_checkpoint(dir);
  ASSERT_TRUE(latest.has_value());
  const auto payload = sc::read_checkpoint_payload(latest.value());
  ASSERT_TRUE(payload.has_value());
  const auto lines = split(payload.value(), '\n');
  std::vector<std::size_t> cells;
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (lines[i].starts_with("lc ")) cells.push_back(i);
  ASSERT_GE(cells.size(), 2u);

  // Each edit is sealed again as a tool would, so only restore's own
  // cross-validation stands between it and the ledger.
  const auto restore_edited = [&](const std::vector<std::string>& edited) {
    const auto resealed = dir / "edited.ckpt";
    EXPECT_TRUE(sc::write_checkpoint_file(resealed, join(edited, '\n')).ok());
    const auto p = sc::read_checkpoint_payload(resealed);
    EXPECT_TRUE(p.has_value());
    reset_globals();
    auto& ledger = obs::energy_ledger::instance();
    ledger.charge({"stale", "V100", "job", "k"}, obs::cause::idle, 1234.5);
    sc::simulator fresh{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
    enable_restore(fresh);
    const auto st = fresh.restore_checkpoint(p.value(), trace);
    if (!st.ok()) {
      // Nothing was imported, and the simulator has nothing to resume.
      EXPECT_EQ(ledger.total_j(), 1234.5);
      EXPECT_EQ(ledger.entries().size(), 1u);
      EXPECT_EQ(tel::metrics_registry::instance().get_counter("cluster.placements").value(), 0u);
      EXPECT_THROW((void)fresh.resume(trace), std::logic_error);
    }
    return st;
  };
  ASSERT_TRUE(restore_edited(lines).ok());

  // The first cell replaced by a copy of the second: its joules would
  // vanish from the cells while the ledger totals still count them.
  auto repeated = lines;
  repeated[cells[0]] = repeated[cells[1]];
  const auto st_repeated = restore_edited(repeated);
  ASSERT_FALSE(st_repeated.ok());
  EXPECT_NE(st_repeated.err().message.find("ledger"), std::string::npos)
      << st_repeated.err().message;

  auto swapped = lines;
  std::swap(swapped[cells[0]], swapped[cells[1]]);
  const auto st_swapped = restore_edited(swapped);
  ASSERT_FALSE(st_swapped.ok());
  EXPECT_NE(st_swapped.err().message.find("ledger"), std::string::npos)
      << st_swapped.err().message;

  std::filesystem::remove_all(dir);
}

TEST_F(checkpoint_test, RejectedRestoreLeavesEverySubsystemUntouched) {
  auto rc = replay_named("guarded");
  const auto dir = temp_dir("synergy_ckpt_untouched");
  (void)rc.rig(every_20s(dir)).sim->run(rc.trace);
  const auto latest = sc::latest_checkpoint(dir);
  ASSERT_TRUE(latest.has_value());
  const auto payload = sc::read_checkpoint_payload(latest.value());
  ASSERT_TRUE(payload.has_value());

  // The resuming side installed one rule fewer, so the payload is rejected
  // for its watchdog rule count — after it parsed, and after the metrics
  // and guard sections would have been importable.
  rc.rules = "wasted_energy_j > 0\n";
  reset_globals();
  const auto victim = rc.rig(sc::checkpoint_options{});
  auto& registry = tel::metrics_registry::instance();
  registry.get_counter("test.sentinel").add(777);
  obs::energy_ledger::instance().charge({"stale", "V100", "job", "k"}, obs::cause::idle, 1234.5);
  const auto guard_before = victim.guard->export_state();

  const auto st = victim.sim->restore_checkpoint(payload.value(), rc.trace);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.err().message.find("watchdog"), std::string::npos) << st.err().message;
  EXPECT_EQ(registry.get_counter("test.sentinel").value(), 777u);
  EXPECT_EQ(registry.get_counter("cluster.placements").value(), 0u);
  EXPECT_EQ(obs::energy_ledger::instance().total_j(), 1234.5);
  const auto guard_after = victim.guard->export_state();
  EXPECT_EQ(guard_after.generation, guard_before.generation);
  EXPECT_EQ(guard_after.table_fallbacks, guard_before.table_fallbacks);
  EXPECT_EQ(guard_after.drift.total, guard_before.drift.total);
  EXPECT_TRUE(victim.watchdog->alerts().empty());

  std::filesystem::remove_all(dir);
}

TEST_F(checkpoint_test, LatestCheckpointFailsClosedOnMissingOrForeignDirs) {
  const auto dir = temp_dir("synergy_ckpt_latest");

  // Missing directory.
  EXPECT_FALSE(sc::latest_checkpoint(dir / "nope").has_value());
  // Empty directory.
  EXPECT_FALSE(sc::latest_checkpoint(dir).has_value());
  // Foreign files only.
  write_file(dir / "notes.txt", "not a checkpoint");
  write_file(dir / "ckpt-junk.synergy", "wrong name shape");
  EXPECT_FALSE(sc::latest_checkpoint(dir).has_value());
  // Real artefact names: the numerically-highest one wins.
  write_file(dir / sc::checkpoint_file_name(3), "x");
  write_file(dir / sc::checkpoint_file_name(12), "y");
  const auto latest = sc::latest_checkpoint(dir);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest.value().filename().string(), sc::checkpoint_file_name(12));
  // ...but an unreadable payload still fails closed at open time.
  EXPECT_FALSE(sc::read_checkpoint_payload(latest.value()).has_value());

  std::filesystem::remove_all(dir);
}

// --------------------------------------------------- corruption fuzzing ----

TEST_F(checkpoint_test, CorruptionFuzzMutatedArtefactsFailClosed) {
  const auto trace = chaotic_trace();
  const auto cc = chaotic_config();

  const auto dir = temp_dir("synergy_ckpt_fuzz");
  sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  sc::checkpoint_options opts;
  opts.interval_s = 20.0;
  opts.dir = dir;
  sim.set_checkpointing(std::move(opts));
  (void)sim.run(trace);
  const auto latest = sc::latest_checkpoint(dir);
  ASSERT_TRUE(latest.has_value());
  const auto sealed = read_file(latest.value());
  ASSERT_FALSE(sealed.empty());
  const auto payload = sc::read_checkpoint_payload(latest.value());
  ASSERT_TRUE(payload.has_value());

  reset_globals();
  sc::simulator victim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  enable_restore(victim);
  const auto mutant_file = dir / "mutant.synergy";

  // Mutations of the sealed artefact: the envelope (magic, size, CRC-32)
  // must catch essentially everything at open time; whatever squeaks
  // through must still restore-or-reject without throwing.
  pcg32 rng{0xcafe0001u};
  for (int i = 0; i < 200; ++i) {
    const auto bad = mutate(sealed, rng);
    if (bad == sealed) continue;
    write_file(mutant_file, bad);
    const auto opened = sc::read_checkpoint_payload(mutant_file);
    if (!opened.has_value()) {
      EXPECT_FALSE(opened.err().message.empty());
      continue;
    }
    // A mutation that preserved the checksum reproduced the payload.
    const auto st = victim.restore_checkpoint(opened.value(), trace);  // must not throw
    if (!st.ok()) EXPECT_FALSE(st.err().message.empty());
  }

  // Mutations of the *payload*, re-sealed with a valid envelope: a hostile
  // artefact with a correct CRC. The parser/validator must reject or accept
  // structurally — never throw, never leave a partial restore that crashes
  // a subsequent resume.
  pcg32 rng2{0xcafe0002u};
  for (int i = 0; i < 200; ++i) {
    const auto bad = mutate(payload.value(), rng2);
    const auto st = victim.restore_checkpoint(bad, trace);  // must not throw
    if (!st.ok()) EXPECT_FALSE(st.err().message.empty());
  }

  // The victim simulator is still coherent: a clean restore + resume after
  // all that fuzzing reproduces the uninterrupted run's job outcomes.
  reset_globals();
  ASSERT_TRUE(victim.restore_checkpoint(payload.value(), trace).ok());
  const auto summary = victim.resume(trace);
  EXPECT_EQ(summary.completed + summary.failed, trace.jobs.size());

  std::filesystem::remove_all(dir);
}

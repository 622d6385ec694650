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
#include <sstream>
#include <string>
#include <vector>

#include "synergy/cluster/checkpoint.hpp"
#include "synergy/cluster/simulator.hpp"
#include "synergy/common/envelope.hpp"
#include "synergy/common/rng.hpp"
#include "synergy/obs/energy_ledger.hpp"
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

/// A replay the resume sweep checkpoints, by name:
///  - "chaotic": chaotic_config() under the energy policy;
///  - "econ_capped": the same faults and chaos under the cost policy, with a
///    periodic two-step tariff, deferrable jobs and a binding facility cap,
///    so econ ticks, deferrals and cap demotions are in flight throughout.
struct replay_case {
  sc::cluster_config cc;
  sc::job_trace trace;
  /// A fresh policy for this case. The cost policy reads `cc.econ`, so the
  /// case must outlive every simulator built on it.
  std::unique_ptr<sc::scheduling_policy> policy() const {
    const auto plan = sc::make_suite_planner(cc.device);
    return cc.econ.enabled ? sc::make_cost_aware(&cc.econ, plan) : sc::make_energy_aware(plan);
  }
};

replay_case replay_named(const std::string& name) {
  replay_case rc{chaotic_config(), chaotic_trace()};
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
  const auto& trace = rc.trace;
  const auto& cc = rc.cc;

  sc::simulator ref{cc, rc.policy()};
  const auto summary_ref = ref.run(trace);
  const auto csv_ref = csv_of(summary_ref);
  const auto json_ref = ledger_json();
  ASSERT_EQ(summary_ref.completed + summary_ref.failed, trace.jobs.size());
  if (cc.econ.enabled) {
    ASSERT_GT(summary_ref.econ_jobs_deferred, 0u);
    ASSERT_GT(summary_ref.econ_price_demotions, 0u);
    ASSERT_GT(summary_ref.cap_demotions, 0u);
  }

  const auto dir = temp_dir(("synergy_ckpt_resume_" + GetParam()).c_str());
  reset_globals();
  {
    sc::simulator sim{cc, rc.policy()};
    sc::checkpoint_options opts;
    opts.interval_s = 20.0;
    opts.dir = dir;
    sim.set_checkpointing(std::move(opts));
    ASSERT_EQ(csv_of(sim.run(trace)), csv_ref);
  }
  const auto files = checkpoint_files(dir);
  ASSERT_GE(files.size(), 3u);

  for (const auto& file : files) {
    const auto payload = sc::read_checkpoint_payload(file);
    ASSERT_TRUE(payload.has_value()) << file << ": " << payload.err().message;

    // Dirty the globals first: a restore must overwrite, not merge.
    reset_globals();
    obs::energy_ledger::instance().charge({"stale", "V100", "job", "k"},
                                          obs::cause::idle, 1234.5);

    sc::simulator resumed{cc, rc.policy()};
    enable_restore(resumed);
    const auto st = resumed.restore_checkpoint(payload.value(), trace);
    ASSERT_TRUE(st.ok()) << file << ": " << st.err().message;
    const auto summary = resumed.resume(trace);

    // Byte-identical summary CSV and ledger snapshot from any resume point.
    EXPECT_EQ(csv_of(summary), csv_ref) << "resumed from " << file;
    EXPECT_EQ(ledger_json(), json_ref) << "resumed from " << file;
    ASSERT_EQ(resumed.results().size(), ref.results().size());
    for (std::size_t i = 0; i < ref.results().size(); ++i) {
      EXPECT_EQ(resumed.results()[i].id, ref.results()[i].id);
      // Exact double equality on purpose: the contract is bit-identity.
      EXPECT_EQ(resumed.results()[i].gpu_energy_j, ref.results()[i].gpu_energy_j);
      EXPECT_EQ(resumed.results()[i].end_s, ref.results()[i].end_s);
      EXPECT_EQ(resumed.results()[i].requeues, ref.results()[i].requeues);
    }
  }

  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Replays, resume_sweep, ::testing::Values("chaotic", "econ_capped"),
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

  std::filesystem::remove_all(dir);
}

TEST_F(checkpoint_test, RestoreRejectsJobIdsThatAreNotInTheTrace) {
  const auto trace = chaotic_trace();
  const auto cc = chaotic_config();
  const auto dir = temp_dir("synergy_ckpt_ids");
  sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  sc::checkpoint_options opts;
  opts.interval_s = 20.0;
  opts.dir = dir;
  sim.set_checkpointing(std::move(opts));
  (void)sim.run(trace);

  // An artefact with both a running and a queued job.
  std::string payload;
  for (const auto& file : checkpoint_files(dir)) {
    const auto p = sc::read_checkpoint_payload(file);
    ASSERT_TRUE(p.has_value());
    if (p.value().find("\nrunj ") != std::string::npos &&
        p.value().find("\nq ") != std::string::npos) {
      payload = p.value();
      break;
    }
  }
  ASSERT_FALSE(payload.empty()) << "no artefact with running and queued jobs";

  // Swap the job id leading the first row of `tag` for one the trace lacks:
  // still a well-formed payload, as a re-sealed artefact would be.
  const auto with_foreign_id = [&payload](const std::string& tag) {
    std::string bad = payload;
    const auto row = bad.find("\n" + tag + " ") + tag.size() + 2;
    bad.replace(row, bad.find(' ', row) - row, "999999");
    return bad;
  };
  for (const std::string section : {"runj", "q"}) {
    reset_globals();
    sc::simulator fresh{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
    enable_restore(fresh);
    const auto st = fresh.restore_checkpoint(with_foreign_id(section), trace);
    ASSERT_FALSE(st.ok()) << section;
    const std::string named = section == "q" ? "queue" : "running";
    EXPECT_NE(st.err().message.find(named), std::string::npos) << st.err().message;
  }

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

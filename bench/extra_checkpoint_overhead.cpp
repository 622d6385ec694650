/// Checkpointing overhead study: the crash-safety tax on a long replay.
///
/// Replays one fixed-seed faulted + node-chaos trace three ways — bare,
/// checkpointing every 60 virtual seconds, and checkpointing every 15 —
/// and reports the wall-clock overhead of serializing the full simulator
/// state (event heap, queued and running jobs, results, counters, RNG
/// streams, ledger, metrics) through the sealed envelope + atomic-write stack.
///
/// Acceptance gates (checked, nonzero exit on violation):
///  - correctness: every checkpointed replay's summary CSV is byte-identical
///    to the bare run — the tick must be a pure observer;
///  - cost: the marginal wall-clock cost per checkpoint stays under 100 ms
///    (the percentage overhead on this deliberately small trace is
///    meaningless — a month-scale replay amortizes a fixed per-artefact
///    cost over hours of work, so the per-checkpoint price is the number
///    that must stay bounded).

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "synergy/cluster/checkpoint.hpp"
#include "synergy/cluster/simulator.hpp"
#include "synergy/obs/energy_ledger.hpp"
#include "synergy/telemetry/metrics_registry.hpp"

namespace sc = synergy::cluster;

namespace {

struct timed_run {
  std::string csv;
  double wall_s{0.0};
  std::uint64_t checkpoints{0};
};

timed_run replay(const sc::cluster_config& cc, const sc::job_trace& trace,
                 double interval_s, const std::filesystem::path& dir) {
  synergy::obs::energy_ledger::instance().reset();
  synergy::telemetry::metrics_registry::instance().reset_values();
  sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  if (interval_s > 0.0) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    sc::checkpoint_options opts;
    opts.interval_s = interval_s;
    opts.dir = dir;
    sim.set_checkpointing(std::move(opts));
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto summary = sim.run(trace);
  const auto t1 = std::chrono::steady_clock::now();
  timed_run r;
  std::ostringstream os;
  summary.csv(os);
  r.csv = os.str();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.checkpoints = sim.checkpoints_written();
  return r;
}

}  // namespace

int main() {
  sc::trace_config tc;
  tc.n_jobs = 600;
  tc.seed = 7;
  const auto trace = sc::generate_trace(tc);

  sc::cluster_config cc;
  cc.n_nodes = 16;
  cc.gpus_per_node = 4;
  cc.faults.seed = 11;
  cc.faults.clock_set_fail_rate = 0.05;
  cc.faults.device_lost_rate = 0.005;
  cc.faults.max_node_losses = 2;
  cc.chaos.mtbf_s = 300.0;
  cc.chaos.restart_delay_s = 120.0;
  cc.chaos.max_crashes = 3;
  cc.obs_scrape_interval_s = 10.0;

  const auto dir = std::filesystem::temp_directory_path() / "synergy_ckpt_bench";
  const auto bare = replay(cc, trace, 0.0, dir);
  const auto sparse = replay(cc, trace, 60.0, dir);
  const auto dense = replay(cc, trace, 15.0, dir);
  std::filesystem::remove_all(dir);

  const auto pct = [&](const timed_run& r) {
    return bare.wall_s > 0.0 ? 100.0 * (r.wall_s - bare.wall_s) / bare.wall_s : 0.0;
  };
  const auto per_ckpt_ms = [&](const timed_run& r) {
    return r.checkpoints > 0
               ? 1e3 * (r.wall_s - bare.wall_s) / static_cast<double>(r.checkpoints)
               : 0.0;
  };
  std::cout << "checkpoint overhead (600 jobs, 64 GPUs, faults + chaos)\n"
            << "  bare        " << bare.wall_s << " s\n"
            << "  every 60 s  " << sparse.wall_s << " s  (" << sparse.checkpoints
            << " checkpoints, " << pct(sparse) << "% overhead, " << per_ckpt_ms(sparse)
            << " ms/checkpoint)\n"
            << "  every 15 s  " << dense.wall_s << " s  (" << dense.checkpoints
            << " checkpoints, " << pct(dense) << "% overhead, " << per_ckpt_ms(dense)
            << " ms/checkpoint)\n";

  int failures = 0;
  if (sparse.csv != bare.csv || dense.csv != bare.csv) {
    std::cerr << "FAIL: checkpointing perturbed the replay (summary CSVs differ)\n";
    ++failures;
  }
  if (sparse.checkpoints == 0 || dense.checkpoints <= sparse.checkpoints) {
    std::cerr << "FAIL: checkpoint cadence did not scale with the interval\n";
    ++failures;
  }
  if (per_ckpt_ms(sparse) >= 100.0 || per_ckpt_ms(dense) >= 100.0) {
    std::cerr << "FAIL: a checkpoint costs over 100 ms of wall clock ("
              << per_ckpt_ms(sparse) << " / " << per_ckpt_ms(dense) << " ms)\n";
    ++failures;
  }
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}

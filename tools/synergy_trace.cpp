/// synergy_trace — run a stock workload with the telemetry plane on and
/// export what the system observed about itself: a Chrome trace-event JSON
/// (load it at chrome://tracing or ui.perfetto.dev), an optional CSV of the
/// same events, and a metrics summary table.
///
/// The default run exercises every instrumented layer so one trace shows
/// the whole frequency path of the paper: queue submissions resolving
/// energy targets (plan), vendor clock-set attempts (freq_change), per-kernel
/// execution on the simulated device timeline (kernel, pid 2), power-sensor
/// reads (power_sample), and a small cluster job through the SLURM-like
/// controller (sched).
///
/// Usage: synergy_trace [options] [benchmark names...]
///   --device NAME     device spec (default V100)
///   --target NAME     energy target for submissions (default ES_50)
///   --out FILE        Chrome trace JSON path (default synergy_trace.json)
///   --csv FILE        also write the events as CSV
///   --capacity N      trace ring capacity in events
///   --no-cluster      skip the scheduler job
///   --no-cluster-sim  skip the discrete-event cluster simulation
///   --faults R        wrap the vendor backend in a fault injector + retry
///                     layer: clock-set/power-read faults at rate R
///   --fault-seed S    fault injector RNG seed
///   --log-tap         mirror log records into the trace
///   --obs-out PREFIX  also export the energy-attribution ledger as
///                     PREFIX.json / PREFIX.prom snapshots
///   --governor SPEC   attach a reactive governor to every queue submission:
///                     conservative | ondemand | powercap_tracker, or
///                     hybrid[-<policy>] to seed from the resolved target's
///                     plan; append :key=val,... for tunables
///   benchmarks        subset of the suite to run (default: first 6)
///
/// Exit status: 0 on success, 1 on operational failure (unwritable outputs),
/// 2 on a usage error (unknown flag, malformed value).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "synergy/cluster/simulator.hpp"
#include "synergy/common/parse.hpp"
#include "synergy/governor/governor.hpp"
#include "synergy/obs/snapshot.hpp"
#include "synergy/sched/controller.hpp"
#include "synergy/synergy.hpp"
#include "synergy/telemetry/export.hpp"
#include "synergy/telemetry/telemetry.hpp"
#include "synergy/workloads/benchmark.hpp"

namespace sm = synergy::metrics;
namespace ss = synergy::sched;
namespace sw = synergy::workloads;
namespace tel = synergy::telemetry;

namespace {

void run_queue_workload(const std::string& device, const sm::target& target,
                        const std::vector<std::string>& names, double fault_rate,
                        std::uint64_t fault_seed,
                        const std::optional<synergy::governor::governor_spec>& gov) {
  simsycl::device dev{synergy::gpusim::make_device_spec(device)};
  std::shared_ptr<synergy::context> ctx;
  if (fault_rate > 0.0) {
    // Fault-injecting stack: backend -> fault_injector -> resilient_library.
    // Transient clock-set failures and power-read dropouts at the requested
    // rate; the retry layer absorbs what it can, the queue degrades the rest.
    synergy::context_options opts;
    synergy::vendor::fault_config faults;
    faults.seed = static_cast<std::uint32_t>(fault_seed);
    faults.clock_set_transient_rate = fault_rate;
    faults.power_read_dropout_rate = fault_rate;
    faults.stale_power_rate = fault_rate / 2.0;
    opts.faults = faults;
    opts.retry = synergy::vendor::retry_policy{};
    ctx = std::make_shared<synergy::context>(std::vector<simsycl::device>{dev},
                                             std::move(opts));
  } else {
    ctx = std::make_shared<synergy::context>(std::vector<simsycl::device>{dev});
  }
  ctx->set_user(synergy::vendor::user_context::root());
  synergy::queue q{dev, ctx};
  q.set_target(target);
  if (gov) {
    if (const auto st = q.set_governor(*gov); !st.ok())
      throw std::runtime_error("--governor: " + st.err().to_string());
  }
  for (const auto& name : names) {
    const auto& bench = sw::find(name);
    auto e = bench.run(q);
    e.wait_and_throw();
    // A power-sensor read per kernel, as the paper's coarse-grained
    // profiling thread would do (Sec. 4.2).
    const auto binding = ctx->bind(dev);
    (void)binding.library->power_usage(binding.index);
  }
  q.print_energy_report(std::cout);
  if (gov)
    std::cout << "governor " << gov->to_string() << ": " << q.governor_decisions()
              << " decision(s), " << q.governor_clock_changes() << " clock change(s)\n";
  if (fault_rate > 0.0) {
    std::cout << "fault injection: " << q.degraded_submissions()
              << " degraded submissions";
    for (const auto* res : ctx->resilience_layers())
      std::cout << ", " << res->retries() << " retries, " << res->exhausted()
                << " exhausted, " << res->breaker_opens() << " breaker opens";
    std::cout << '\n';
  }
}

void run_cluster_job(const std::string& device, const sm::target& target,
                     const std::vector<std::string>& names) {
  std::vector<ss::node_config> nodes;
  ss::node_config cfg;
  cfg.name = "trace-node";
  cfg.gpus = {device, device};
  nodes.push_back(cfg);
  ss::controller ctl{std::move(nodes)};

  ss::job_request job;
  job.name = "traced_job";
  job.n_nodes = 1;
  job.payload = [&](ss::job_context& jc) {
    for (ss::node* n : jc.nodes) {
      for (const auto& dev : n->devices()) {
        synergy::queue q{dev, n->ctx()};
        q.set_target(target);
        for (const auto& name : names) sw::find(name).run(q).wait_and_throw();
      }
    }
  };
  ctl.submit(std::move(job));
  ctl.run_pending();
}

/// A small energy-aware cluster run under a facility cap, so the exported
/// trace carries the cluster timeline (pid 3) and the summary shows the
/// cluster metrics: queue-wait histogram, placement counters, cap
/// rebalances.
void run_cluster_sim(const std::string& device, const std::string& target_name,
                     const std::vector<std::string>& names) {
  namespace sc = synergy::cluster;
  sc::trace_config tc;
  tc.n_jobs = 32;
  tc.mean_interarrival_s = 0.5;
  tc.work_items = 1 << 22;
  tc.target_mix = {target_name};
  tc.kernels = names;
  const auto trace = sc::generate_trace(tc);

  sc::cluster_config cc;
  cc.n_nodes = 4;
  cc.gpus_per_node = 2;
  cc.device = device;
  // Below the all-busy worst case, so the budget manager has to rebalance.
  cc.facility_cap_w = 3000.0;
  sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(device))};
  const auto summary = sim.run(trace);
  std::cout << '\n';
  summary.print(std::cout);
}

int usage(int code) {
  (code ? std::cerr : std::cout)
      << "usage: synergy_trace [--device D] [--target T] [--out F] [--csv F]\n"
         "                     [--capacity N] [--no-cluster] [--no-cluster-sim]\n"
         "                     [--faults R] [--fault-seed S]\n"
         "                     [--log-tap] [--obs-out PREFIX] [--governor SPEC]\n"
         "                     [benchmark names...]\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string device = "V100";
  std::string target_name = "ES_50";
  std::string out_file = "synergy_trace.json";
  std::string csv_file;
  bool cluster = true;
  bool cluster_sim = true;
  double fault_rate = 0.0;
  std::uint64_t fault_seed = 0x5fa017u;
  std::string obs_out;
  std::string governor_arg;
  std::optional<synergy::governor::governor_spec> governor_spec;
  std::vector<std::string> names;

  // Parse phase: unknown flags and malformed values are usage errors (exit
  // 2); bare words are benchmark names. Operational failures below exit 1.
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--device") device = value();
      else if (arg == "--target") target_name = value();
      else if (arg == "--faults") fault_rate = synergy::common::parse_number<double>(value(), arg);
      else if (arg == "--fault-seed")
        fault_seed = synergy::common::parse_number<std::uint64_t>(value(), arg);
      else if (arg == "--out") out_file = value();
      else if (arg == "--csv") csv_file = value();
      else if (arg == "--capacity")
        tel::trace_recorder::instance().set_capacity(
            synergy::common::parse_number<std::size_t>(value(), arg));
      else if (arg == "--no-cluster") cluster = false;
      else if (arg == "--no-cluster-sim") cluster_sim = false;
      else if (arg == "--log-tap") tel::install_log_tap();
      else if (arg == "--obs-out") obs_out = value();
      else if (arg == "--governor") governor_arg = value();
      else if (arg == "--help" || arg == "-h") return usage(0);
      else if (arg.rfind("--", 0) == 0) {
        std::cerr << "error: unknown argument " << arg << '\n';
        return usage(2);
      } else {
        names.push_back(arg);
      }
    }
    if (fault_rate < 0.0 || fault_rate > 1.0) {
      std::cerr << "error: --faults rate must be in [0,1], got " << fault_rate << '\n';
      return usage(2);
    }
    if (!governor_arg.empty()) {
      auto spec = synergy::governor::parse_governor_spec(governor_arg);
      if (!spec.has_value()) {
        std::cerr << "error: --governor " << governor_arg << ": "
                  << spec.err().message << '\n';
        return usage(2);
      }
      const auto probe = synergy::governor::make_governor(
          spec.value(), synergy::gpusim::make_device_spec(device));
      if (!probe.has_value()) {
        std::cerr << "error: --governor " << governor_arg << ": "
                  << probe.err().message << '\n';
        return usage(2);
      }
      governor_spec = std::move(spec).value();
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return usage(2);
  }

  try {
    const auto target = sm::target::parse(target_name);
    if (!obs_out.empty()) synergy::obs::energy_ledger::instance().reset();
    if (names.empty()) {
      const auto all = sw::names();
      names.assign(all.begin(), all.begin() + std::min<std::size_t>(6, all.size()));
    }

    run_queue_workload(device, target, names, fault_rate, fault_seed, governor_spec);
    if (cluster) run_cluster_job(device, target, names);
    if (cluster_sim) run_cluster_sim(device, target.to_string(), names);

    std::cout << '\n';
    tel::metrics_registry::instance().summary_table(std::cout);

    const auto& rec = tel::trace_recorder::instance();
    std::cout << '\n'
              << rec.size() << " trace events buffered (" << rec.dropped()
              << " dropped, capacity " << rec.capacity() << ")\n";

    if (!tel::write_chrome_trace_file(out_file)) {
      std::cerr << "error: cannot write " << out_file << '\n';
      return 1;
    }
    std::cout << "chrome trace written to " << out_file
              << " (load at chrome://tracing or ui.perfetto.dev)\n";
    if (!csv_file.empty()) {
      if (!tel::write_csv_file(csv_file)) {
        std::cerr << "error: cannot write " << csv_file << '\n';
        return 1;
      }
      std::cout << "csv written to " << csv_file << '\n';
    }
    if (!obs_out.empty()) {
      namespace obs = synergy::obs;
      auto& ledger = obs::energy_ledger::instance();
      ledger.scrape(0.0);
      obs::snapshot_options opts;
      opts.source = "synergy_trace";
      if (auto st = obs::write_snapshot_files(obs_out, ledger, nullptr, opts); !st.ok()) {
        std::cerr << "error: --obs-out " << obs_out << ": " << st.err().to_string() << '\n';
        return 1;
      }
      std::cout << "obs snapshot written to " << obs_out << ".json / " << obs_out
                << ".prom (" << ledger.charges() << " charge(s), "
                << obs::format_double(ledger.total_j()) << " J)\n";
    }
#if !SYNERGY_TELEMETRY_ENABLED
    std::cout << "note: telemetry was compiled out (-DSYNERGY_TELEMETRY=OFF); "
                 "the trace is empty\n";
#endif
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}

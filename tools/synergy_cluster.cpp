/// synergy_cluster — run the discrete-event cluster simulator on a job
/// trace and print throughput / makespan / queue-wait / energy metrics.
///
/// The trace is either generated (Poisson arrivals over the 23-kernel
/// suite, seeded — same seed, same bytes) or loaded from a CSV written by
/// --trace-out, so any run can be replayed bit-identically. The summary CSV
/// starts with a `# seed=... policy=...` comment naming the trace that
/// produced it.
///
/// Usage: synergy_cluster [options]
///   --nodes N              cluster nodes (default 16)
///   --gpus N               GPUs per node (default 4)
///   --device NAME          device spec (default V100)
///   --policy NAME          fifo | backfill | energy | cost (default energy;
///                          cost extends energy with price-aware deferral
///                          and clock demotion, and requires --econ)
///   --models DIR           resolve the energy policy through trained models
///                          from this store, behind the prediction
///                          guardrails (model -> tuning table -> default);
///                          a corrupt/missing set degrades, never aborts
///   --target NAME          override every job's energy target (e.g. ES_50)
///   --cap W                facility power cap in watts (0 = uncapped)
///   --jobs N               generated trace length (default 1000)
///   --seed S               generator seed (default 42)
///   --mean-interarrival S  mean seconds between arrivals (default 2)
///   --work-items N         work items per kernel launch (default 2^28)
///   --trace-in FILE        replay this trace CSV instead of generating
///   --trace-out FILE       write the trace CSV for later replay
///   --csv FILE             write the summary CSV ("-" for stdout)
///   --report               also print the per-job sacct-style table
///   --faults R             inject clock-set failures + power-read dropouts
///                          at rate R (per placement / per completion)
///   --fault-device-lost R  device-lost rate per placement (node drained,
///                          jobs requeued)
///   --fault-max-losses N   cap on nodes the fault plan may kill
///   --fault-seed S         fault-plan RNG seed (default 0xfa0175eed)
///   --drift SKEW           multiply modelled GPU power by SKEW mid-run
///   --drift-at S           drift onset on the cluster timeline (seconds)
///   --drift-gamma G        clock-dependent drift component: the multiplier
///                          becomes SKEW * (core/default)^G, which changes
///                          the boards' frequency response and invalidates
///                          the trained models (the drift monitor trips)
///   --lifecycle DIR        close the loop: follow the drift quarantine with
///                          an automatic retrain + shadow evaluation +
///                          promotion/rollback, persisting the version
///                          history to DIR (requires --models and the
///                          energy policy)
///   --lifecycle-history    print the lifecycle decision log after the run
///   --obs-out PREFIX       export the observability plane: PREFIX.json and
///                          PREFIX.prom snapshots (rewritten atomically on
///                          every scrape tick, so `synergy_top --watch` can
///                          follow along) plus PREFIX.alerts.jsonl with one
///                          line per fired SLO alert
///   --obs-interval S       virtual seconds between scrape ticks (default 5)
///   --slo-rules FILE       watchdog rule file (one `<kind> > <threshold>
///                          [window N]` per line); default: built-in rules
///                          for wasted energy, energy-per-job regression,
///                          quarantine dwell, (with --models) fallback
///                          ratio, and (with --econ) cost/carbon-per-job
///                          regression
///   --econ                 price every joule: synthetic diurnal electricity
///                          price and carbon traces seeded from --seed (or
///                          the files below), a cost/carbon breakdown in the
///                          summary and snapshots, and amortised capex
///   --econ-period S        period of the synthetic diurnal traces in
///                          virtual seconds (default 240; expensive first
///                          half, cheap second half)
///   --price-trace FILE     electricity price trace CSV ($/kWh step series;
///                          `# synergy-econ-trace v1 kind=price ...` header);
///                          requires --econ
///   --carbon-trace FILE    carbon intensity trace CSV (gCO2/kWh);
///                          requires --econ
///   --capex RATE           amortised capital cost per node-hour in USD
///                          (default 0 = opex-only view); requires --econ
///   --deferrable FRAC      fraction of generated jobs marked deferrable
///                          (price-shiftable by the cost policy; default 0)
///   --governor SPEC        run every placed job under a reactive governor:
///                          conservative | ondemand | powercap_tracker, or
///                          hybrid[-<policy>] to seed from the planner's
///                          prediction; append :key=val,... for tunables
///                          (e.g. hybrid:deadband=0.05)
///   --governor-tick S      governor poll cadence in virtual seconds
///                          (default 0.25)
///   --chaos-mtbf S         node-level chaos: mean virtual seconds between
///                          whole-node crashes (exponentially distributed)
///   --chaos-restart S      outage before a crashed node warm-restarts
///                          (0 = crashed nodes never return)
///   --chaos-max N          cap on crash events for the run (default 0 = off)
///   --chaos-seed S         chaos RNG seed (default 0xc4a05c4a05)
///   --checkpoint-dir DIR   write sealed ckpt-NNNNNN.synergy artefacts here
///   --checkpoint-interval S  checkpoint cadence on the virtual clock
///                          (requires --checkpoint-dir)
///   --resume               restore the latest checkpoint in --checkpoint-dir
///                          and continue the replay; the final outputs are
///                          byte-identical to the uninterrupted run. The
///                          trace and every replay flag (policy, faults,
///                          chaos, obs) must match the exporting run.
///   --crash-at S           crash-injection harness: _Exit(42) at this
///                          virtual time (tests only)
///                          Checkpointing excludes --governor/--lifecycle:
///                          their in-memory state is not serialisable.
///
/// Exit status: 0 on success, 1 on operational failure (unreadable files,
/// corrupt/missing checkpoints, simulation errors), 2 on a usage error
/// (unknown flag, malformed value, incompatible flag combination), 42 when
/// an injected --crash-at fired.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "synergy/cluster/checkpoint.hpp"
#include "synergy/cluster/simulator.hpp"
#include "synergy/common/parse.hpp"
#include "synergy/econ/tco.hpp"
#include "synergy/econ/trace.hpp"
#include "synergy/plan_service.hpp"
#include "synergy/governor/governor.hpp"
#include "synergy/guarded_planner.hpp"
#include "synergy/lifecycle/lifecycle_manager.hpp"
#include "synergy/obs/slo_watchdog.hpp"
#include "synergy/obs/snapshot.hpp"

namespace sc = synergy::cluster;
namespace sm = synergy::metrics;

namespace {

int usage(int code) {
  (code ? std::cerr : std::cout)
      << "usage: synergy_cluster [--nodes N] [--gpus N] [--device D]\n"
         "                       [--policy fifo|backfill|energy|cost] [--models DIR]\n"
         "                       [--target T]\n"
         "                       [--cap W] [--jobs N] [--seed S]\n"
         "                       [--mean-interarrival S] [--work-items N]\n"
         "                       [--trace-in F] [--trace-out F] [--csv F] [--report]\n"
         "                       [--faults R] [--fault-device-lost R]\n"
         "                       [--fault-max-losses N] [--fault-seed S]\n"
         "                       [--drift SKEW] [--drift-at S] [--drift-gamma G]\n"
         "                       [--lifecycle DIR] [--lifecycle-history]\n"
         "                       [--obs-out PREFIX] [--obs-interval S]\n"
         "                       [--slo-rules FILE]\n"
         "                       [--governor SPEC] [--governor-tick S]\n"
         "                       [--chaos-mtbf S] [--chaos-restart S] [--chaos-max N]\n"
         "                       [--chaos-seed S]\n"
         "                       [--checkpoint-dir DIR] [--checkpoint-interval S]\n"
         "                       [--resume] [--crash-at S]\n"
         "                       [--econ] [--econ-period S] [--price-trace F]\n"
         "                       [--carbon-trace F] [--capex RATE] [--deferrable FRAC]\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  sc::cluster_config cluster;
  sc::trace_config gen;
  std::string policy = "energy";
  std::string model_dir;
  std::optional<sm::target> override_target;
  std::string trace_in;
  std::string trace_out;
  std::string csv_file;
  std::string lifecycle_dir;
  bool lifecycle_history = false;
  bool report = false;
  std::string obs_out;
  double obs_interval = 5.0;
  std::string slo_rules_file;
  std::string governor_arg;
  double governor_tick = 0.25;
  std::string ckpt_dir;
  double ckpt_interval = 0.0;
  bool do_resume = false;
  double crash_at = -1.0;
  bool econ_on = false;
  double econ_period = 240.0;
  std::string price_trace_file;
  std::string carbon_trace_file;
  double capex = 0.0;

  // Parse phase: any malformed flag or value is a usage error (exit 2);
  // operational failures below exit 1.
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      // A numeric value must parse whole: "--nodes 2x" is a usage error.
      const auto count = [&] { return synergy::common::parse_number<std::size_t>(value(), arg); };
      const auto seed = [&] { return synergy::common::parse_number<std::uint64_t>(value(), arg); };
      const auto real = [&] { return synergy::common::parse_number<double>(value(), arg); };
      if (arg == "--nodes") cluster.n_nodes = count();
      else if (arg == "--gpus") cluster.gpus_per_node = count();
      else if (arg == "--device") cluster.device = value();
      else if (arg == "--policy") policy = value();
      else if (arg == "--models") model_dir = value();
      else if (arg == "--target") override_target = sm::target::parse(value());
      else if (arg == "--cap") cluster.facility_cap_w = real();
      else if (arg == "--jobs") gen.n_jobs = count();
      else if (arg == "--seed") gen.seed = seed();
      else if (arg == "--mean-interarrival") gen.mean_interarrival_s = real();
      else if (arg == "--work-items") gen.work_items = real();
      else if (arg == "--trace-in") trace_in = value();
      else if (arg == "--trace-out") trace_out = value();
      else if (arg == "--csv") csv_file = value();
      else if (arg == "--report") report = true;
      else if (arg == "--faults") {
        const double r = real();
        if (r < 0.0 || r > 1.0) throw std::invalid_argument("--faults rate out of [0,1]");
        cluster.faults.clock_set_fail_rate = r;
        cluster.faults.power_read_dropout_rate = r;
      } else if (arg == "--fault-device-lost") {
        const double r = real();
        if (r < 0.0 || r > 1.0)
          throw std::invalid_argument("--fault-device-lost rate out of [0,1]");
        cluster.faults.device_lost_rate = r;
      } else if (arg == "--fault-max-losses") cluster.faults.max_node_losses = count();
      else if (arg == "--fault-seed") cluster.faults.seed = seed();
      else if (arg == "--drift") cluster.drift.power_skew = real();
      else if (arg == "--drift-at") cluster.drift.at_s = real();
      else if (arg == "--drift-gamma") cluster.drift.freq_exponent = real();
      else if (arg == "--lifecycle") lifecycle_dir = value();
      else if (arg == "--lifecycle-history") lifecycle_history = true;
      else if (arg == "--obs-out") obs_out = value();
      else if (arg == "--obs-interval") obs_interval = real();
      else if (arg == "--slo-rules") slo_rules_file = value();
      else if (arg == "--governor") governor_arg = value();
      else if (arg == "--governor-tick") governor_tick = real();
      else if (arg == "--chaos-mtbf") cluster.chaos.mtbf_s = real();
      else if (arg == "--chaos-restart") cluster.chaos.restart_delay_s = real();
      else if (arg == "--chaos-max") cluster.chaos.max_crashes = count();
      else if (arg == "--chaos-seed") cluster.chaos.seed = seed();
      else if (arg == "--checkpoint-dir") ckpt_dir = value();
      else if (arg == "--checkpoint-interval") ckpt_interval = real();
      else if (arg == "--resume") do_resume = true;
      else if (arg == "--crash-at") crash_at = real();
      else if (arg == "--econ") econ_on = true;
      else if (arg == "--econ-period") econ_period = real();
      else if (arg == "--price-trace") price_trace_file = value();
      else if (arg == "--carbon-trace") carbon_trace_file = value();
      else if (arg == "--capex") capex = real();
      else if (arg == "--deferrable") gen.deferrable_fraction = real();
      else if (arg == "--help" || arg == "-h") return usage(0);
      else {
        std::cerr << "error: unknown argument " << arg << '\n';
        return usage(2);
      }
    }
    if (!(governor_tick > 0.0)) {
      std::cerr << "error: --governor-tick must be > 0\n";
      return usage(2);
    }
    if (!governor_arg.empty()) {
      auto spec = synergy::governor::parse_governor_spec(governor_arg);
      if (!spec.has_value()) {
        std::cerr << "error: --governor " << governor_arg << ": "
                  << spec.err().message << '\n';
        return usage(2);
      }
      // Vocabulary check against the real device so unknown/out-of-range
      // tunables fail here, not mid-run.
      const auto probe = synergy::governor::make_governor(
          spec.value(), synergy::gpusim::make_device_spec(cluster.device));
      if (!probe.has_value()) {
        std::cerr << "error: --governor " << governor_arg << ": "
                  << probe.err().message << '\n';
        return usage(2);
      }
      cluster.governor.enabled = true;
      cluster.governor.spec = std::move(spec).value();
      cluster.governor.tick_interval_s = governor_tick;
    }
    if (cluster.chaos.mtbf_s < 0.0) {
      std::cerr << "error: --chaos-mtbf must be >= 0\n";
      return usage(2);
    }
    if (cluster.chaos.restart_delay_s < 0.0) {
      std::cerr << "error: --chaos-restart must be >= 0\n";
      return usage(2);
    }
    if (ckpt_interval != 0.0 && !(ckpt_interval > 0.0)) {
      std::cerr << "error: --checkpoint-interval must be > 0\n";
      return usage(2);
    }
    if (ckpt_interval > 0.0 && ckpt_dir.empty()) {
      std::cerr << "error: --checkpoint-interval needs --checkpoint-dir\n";
      return usage(2);
    }
    if (do_resume && ckpt_dir.empty()) {
      std::cerr << "error: --resume needs --checkpoint-dir\n";
      return usage(2);
    }
    if (crash_at >= 0.0 && ckpt_dir.empty()) {
      std::cerr << "error: --crash-at needs --checkpoint-dir (crash injection "
                   "without checkpoints loses the replay)\n";
      return usage(2);
    }
    if (!ckpt_dir.empty() && !governor_arg.empty()) {
      std::cerr << "error: checkpointing is incompatible with --governor "
                   "(per-job governor state is not serialisable)\n";
      return usage(2);
    }
    if (!ckpt_dir.empty() && !lifecycle_dir.empty()) {
      std::cerr << "error: checkpointing is incompatible with --lifecycle "
                   "(in-memory retrain state is not serialisable)\n";
      return usage(2);
    }
    if (!econ_on && (!price_trace_file.empty() || !carbon_trace_file.empty())) {
      std::cerr << "error: --price-trace/--carbon-trace need --econ\n";
      return usage(2);
    }
    if (!econ_on && capex != 0.0) {
      std::cerr << "error: --capex needs --econ\n";
      return usage(2);
    }
    if (capex < 0.0) {
      std::cerr << "error: --capex must be >= 0\n";
      return usage(2);
    }
    if (!(econ_period > 0.0)) {
      std::cerr << "error: --econ-period must be > 0\n";
      return usage(2);
    }
    if (gen.deferrable_fraction < 0.0 || gen.deferrable_fraction > 1.0) {
      std::cerr << "error: --deferrable fraction out of [0,1]\n";
      return usage(2);
    }
    if ((policy == "cost" || policy == "cost-aware") && !econ_on) {
      std::cerr << "error: --policy cost needs --econ (the cost policy prices "
                   "its deferral and demotion decisions)\n";
      return usage(2);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return usage(2);
  }

  try {
    sc::job_trace trace;
    if (!trace_in.empty()) {
      std::ifstream in{trace_in};
      if (!in) {
        std::cerr << "error: cannot read " << trace_in << '\n';
        return 1;
      }
      std::ostringstream text;
      text << in.rdbuf();
      trace = sc::job_trace::from_csv(text.str());
    } else {
      trace = sc::generate_trace(gen);
    }
    if (!trace_out.empty()) {
      std::ofstream out{trace_out};
      if (!out) {
        std::cerr << "error: cannot write " << trace_out << '\n';
        return 1;
      }
      out << trace.to_csv();
      std::cout << "trace written to " << trace_out << " (seed " << trace.seed << ")\n";
    }

    namespace econ = synergy::econ;
    if (econ_on) {
      const auto load_trace = [](const std::string& file, const std::string& kind) {
        std::ifstream in{file};
        if (!in)
          throw std::runtime_error("cannot read --" + kind + "-trace " + file);
        std::ostringstream text;
        text << in.rdbuf();
        return econ::parse_step_trace(text.str(), kind);
      };
      cluster.econ.enabled = true;
      cluster.econ.capex_usd_per_node_hour = capex;
      // Synthetic traces are seeded from the generator seed so a replayed
      // seed reproduces the tariff along with the arrivals; price and carbon
      // draw from distinct rng streams.
      econ::synthetic_config syn;
      syn.seed = gen.seed;
      syn.period_s = econ_period;
      syn.step_s = econ_period / 24.0;
      if (!price_trace_file.empty()) {
        cluster.econ.price = load_trace(price_trace_file, "price");
      } else {
        syn.stream = 0;
        syn.base = 0.10;
        syn.amplitude = 0.04;
        syn.noise = 0.01;
        cluster.econ.price = econ::synthetic_diurnal(syn);
      }
      if (!carbon_trace_file.empty()) {
        cluster.econ.carbon = load_trace(carbon_trace_file, "carbon");
      } else {
        syn.stream = 1;
        syn.base = 300.0;
        syn.amplitude = 120.0;
        syn.noise = 20.0;
        cluster.econ.carbon = econ::synthetic_diurnal(syn);
      }
      std::cout << "econ: pricing enabled (mean $"
                << synergy::obs::format_double(cluster.econ.price.mean())
                << "/kWh, mean " << synergy::obs::format_double(cluster.econ.carbon.mean())
                << " gCO2/kWh, capex $" << synergy::obs::format_double(capex)
                << " per node-hour)\n";
    }

    sc::plan_fn plan;
    std::shared_ptr<synergy::guarded_planner> guard;
    std::shared_ptr<synergy::plan_service> service;
    bool model_loaded = false;
    if (policy == "energy" || policy == "energy-aware" || policy == "cost" ||
        policy == "cost-aware") {
      if (!model_dir.empty()) {
        auto guarded = sc::make_guarded_suite_planner(cluster.device, model_dir);
        std::cout << "model tier: "
                  << (guarded.model_loaded ? "active" : "degraded (tuning-table fallback)")
                  << '\n';
        if (!guarded.load_summary.empty()) std::cout << guarded.load_summary;
        plan = std::move(guarded.plan);
        guard = guarded.guard;
        service = guarded.service;
        model_loaded = guarded.model_loaded;
      } else {
        plan = sc::make_suite_planner(cluster.device);
      }
    }
    const bool obs_enabled = !obs_out.empty();
    if (obs_enabled) {
      if (!(obs_interval > 0.0)) {
        std::cerr << "error: --obs-interval must be > 0\n";
        return 1;
      }
      cluster.obs_scrape_interval_s = obs_interval;
    }

    sc::simulator sim{cluster,
                      sc::make_policy(policy, std::move(plan), override_target, &cluster.econ)};

    if (!ckpt_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(ckpt_dir, ec);
      if (ec) {
        std::cerr << "error: --checkpoint-dir " << ckpt_dir << ": " << ec.message() << '\n';
        return 1;
      }
      sc::checkpoint_options ckpt_opts;
      ckpt_opts.interval_s = ckpt_interval;
      ckpt_opts.dir = ckpt_dir;
      ckpt_opts.crash_at_s = crash_at;
      // The guard chain and its plan cache ride in every artefact: a cache
      // hit bypasses the chain, so resuming with a cold cache would replay a
      // different counter/tier sequence than the uninterrupted run.
      ckpt_opts.guard = guard;
      ckpt_opts.service = service;
      sim.set_checkpointing(std::move(ckpt_opts));
    }

    namespace lc = synergy::lifecycle;
    std::shared_ptr<lc::model_registry> registry;
    std::shared_ptr<lc::lifecycle_manager> manager;
    if (!lifecycle_dir.empty()) {
      if (!guard || !model_loaded || !guard->planner()) {
        std::cerr << "error: --lifecycle needs the energy policy with --models "
                     "(the model tier must be active to manage its lifecycle)\n";
        return 1;
      }
      const auto spec = synergy::gpusim::make_device_spec(cluster.device);
      registry = std::make_shared<lc::model_registry>();
      registry->install(lc::version_origin::initial, cluster.device, guard->planner(), 0.0, 0.0,
                        "loaded from " + model_dir);
      auto store = std::make_shared<lc::version_store>(lifecycle_dir);
      if (const auto champ = registry->champion()) {
        if (const auto st = store->save(*champ); !st.ok())
          std::cerr << "warning: cannot persist v" << champ->id << ": " << st.err().to_string()
                    << '\n';
        else if (const auto st2 = store->set_head(champ->id); !st2.ok())
          std::cerr << "warning: cannot move HEAD: " << st2.err().to_string() << '\n';
      }
      // Challenger sweeps are deliberately small: the retrain happens inside
      // the simulated run and only needs to recover the drifted frequency
      // response, not match the offline training budget.
      synergy::trainer_options retrain_opts;
      retrain_opts.n_microbenchmarks = 24;
      retrain_opts.freq_samples = 12;
      retrain_opts.repetitions = 1;
      auto retrain = lc::make_drifted_retrainer(spec, retrain_opts, cluster.drift.power_skew,
                                                cluster.drift.freq_exponent);
      manager = std::make_shared<lc::lifecycle_manager>(registry, spec, std::move(retrain),
                                                        lc::lifecycle_options{}, store);
      sim.attach_recovery(guard, manager);
      std::cout << "lifecycle: persisting versions to " << lifecycle_dir << '\n';
    }

    namespace obs = synergy::obs;
    auto& ledger = obs::energy_ledger::instance();
    std::shared_ptr<obs::slo_watchdog> watchdog;
    std::ofstream alerts_out;
    obs::snapshot_options obs_opts;
    if (obs_enabled) {
      std::string rules_text;
      if (!slo_rules_file.empty()) {
        std::ifstream in{slo_rules_file};
        if (!in) {
          std::cerr << "error: cannot read --slo-rules " << slo_rules_file << '\n';
          return 1;
        }
        std::ostringstream text;
        text << in.rdbuf();
        rules_text = text.str();
      } else {
        rules_text =
            "wasted_energy_j > 0\n"
            "energy_per_job_ratio > 1.5 window 24\n"
            "quarantine_dwell_s > 60\n";
        if (model_loaded) rules_text += "fallback_ratio > 0.5 window 32\n";
        if (econ_on)
          rules_text +=
              "cost_per_job_ratio > 1.4 window 24\n"
              "carbon_per_job_ratio > 1.4 window 24\n";
      }
      auto rules = obs::parse_rules(rules_text);
      if (!rules.has_value()) {
        std::cerr << "error: "
                  << (slo_rules_file.empty() ? std::string{"built-in SLO rules"}
                                             : slo_rules_file)
                  << ": " << rules.err().to_string() << '\n';
        // Malformed rule text is a usage error like any other bad value;
        // an unreadable file (above) stays an operational failure.
        return usage(2);
      }

      // The ledger is process-global; start this run's attribution from zero.
      ledger.reset();
      watchdog = std::make_shared<obs::slo_watchdog>(std::move(rules.value()), &ledger);

      alerts_out.open(obs_out + ".alerts.jsonl", std::ios::trunc);
      if (!alerts_out) {
        std::cerr << "error: --obs-out " << obs_out << ": cannot open " << obs_out
                  << ".alerts.jsonl for writing\n";
        return 1;
      }
      watchdog->set_alert_sink([&alerts_out](const obs::alert& a) {
        alerts_out << a.to_json_line() << '\n';
        alerts_out.flush();
      });

      obs_opts.source = "synergy_cluster";
      // Probe writability before the (potentially long) run so a bad path
      // fails fast instead of after the simulation finished.
      if (auto st = obs::write_snapshot_files(obs_out, ledger, watchdog.get(), obs_opts);
          !st.ok()) {
        std::cerr << "error: --obs-out " << obs_out << ": " << st.err().to_string() << '\n';
        return 1;
      }

      sim.attach_observability(watchdog, guard);
      sim.set_scrape_hook([&](double t_s) {
        ++obs_opts.sequence;
        obs_opts.time_s = t_s;
        // The econ figures ride in the snapshot as plain data; the meter is
        // inactive until run()/resume() constructs it, so the pre-run probe
        // write above carries no econ block.
        if (const auto& meter = sim.econ_meter(); meter.active()) {
          obs_opts.econ.enabled = true;
          obs_opts.econ.cost_usd = meter.total_cost_usd();
          obs_opts.econ.capex_usd = meter.capex_usd();
          obs_opts.econ.carbon_g = meter.facility_carbon_g();
          obs_opts.econ.cost_per_job_usd = meter.cost_per_job_usd();
          obs_opts.econ.carbon_per_job_g = meter.carbon_per_job_g();
          obs_opts.econ.attributed_cost_usd = meter.attributed_cost_usd();
          obs_opts.econ.attributed_carbon_g = meter.attributed_carbon_g();
          obs_opts.econ.cost_by_cause = meter.cost_by_cause();
          obs_opts.econ.carbon_by_cause = meter.carbon_by_cause();
          obs_opts.econ.jobs_completed = meter.jobs_completed();
        }
        if (auto st = obs::write_snapshot_files(obs_out, ledger, watchdog.get(), obs_opts);
            !st.ok())
          std::cerr << "warning: snapshot write failed: " << st.err().to_string() << '\n';
      });
    }

    sc::run_summary summary;
    if (do_resume) {
      const auto latest = sc::latest_checkpoint(ckpt_dir);
      if (!latest.has_value()) {
        std::cerr << "error: --resume: " << latest.err().to_string() << '\n';
        return 1;
      }
      const auto payload = sc::read_checkpoint_payload(latest.value());
      if (!payload.has_value()) {
        std::cerr << "error: --resume: " << payload.err().to_string() << '\n';
        return 1;
      }
      if (const auto st = sim.restore_checkpoint(payload.value(), trace); !st.ok()) {
        std::cerr << "error: --resume " << latest.value().string() << ": "
                  << st.err().to_string() << '\n';
        return 1;
      }
      if (obs_enabled) {
        // The restore did not replay restored alerts through the sink (the
        // sink is this process's fresh alerts file) — re-emit them so the
        // final JSONL is byte-identical to the uninterrupted run's.
        for (const auto& a : watchdog->alerts()) alerts_out << a.to_json_line() << '\n';
        alerts_out.flush();
        // Continue the snapshot sequence where the exporting run left off.
        obs_opts.sequence = sim.scrape_ticks();
      }
      std::cout << "resumed from " << latest.value().string() << '\n';
      summary = sim.resume(trace);
    } else {
      summary = sim.run(trace);
    }

    if (report) {
      sim.report(std::cout);
      std::cout << '\n';
    }
    summary.print(std::cout);

    if (!csv_file.empty()) {
      if (csv_file == "-") {
        std::cout << '\n';
        summary.csv(std::cout);
      } else {
        std::ofstream out{csv_file};
        if (!out) {
          std::cerr << "error: cannot write " << csv_file << '\n';
          return 1;
        }
        summary.csv(out);
        std::cout << "summary csv written to " << csv_file << '\n';
      }
    }

    if (lifecycle_history && manager && registry) {
      // Deterministic rendering (fixed precision, virtual times only) — the
      // workflow fixture compares this section byte-for-byte across runs.
      std::cout << "\nlifecycle history:\n" << std::fixed << std::setprecision(3);
      for (const auto& v : registry->history()) {
        std::cout << "  v" << v.id << ' ' << lc::to_string(v.origin) << " parent=" << v.parent
                  << " device=" << v.device;
        if (v.origin != lc::version_origin::initial)
          std::cout << " challenger_mape=" << v.challenger_mape
                    << " champion_mape=" << v.champion_mape;
        if (!v.note.empty()) std::cout << " (" << v.note << ')';
        std::cout << '\n';
      }
      for (const auto& e : manager->history()) {
        std::cout << "  t=" << e.time_s << "s " << lc::to_string(e.action);
        if (e.version != 0) std::cout << " -> v" << e.version;
        std::cout << " challenger_mape=" << e.challenger_mape
                  << " champion_mape=" << e.champion_mape << " replay=" << e.replay_samples;
        if (!e.note.empty()) std::cout << " (" << e.note << ')';
        std::cout << '\n';
      }
      if (manager->history().empty()) std::cout << "  (no lifecycle decisions)\n";
    }

    if (obs_enabled) {
      std::cout << "\nobservability: " << ledger.charges() << " charge(s), "
                << obs::format_double(ledger.total_j()) << " J attributed, "
                << watchdog->alerts().size() << " alert(s)\n"
                << "  snapshots " << obs_out << ".json / " << obs_out << ".prom (sequence "
                << obs_opts.sequence << ")\n"
                << "  alerts    " << obs_out << ".alerts.jsonl\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}

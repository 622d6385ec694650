/// Lifecycle-recovery energy study (beyond the paper's static-model
/// evaluation): the same drifted cluster replay with the model-lifecycle
/// loop on vs. off. Mid-run, every board's frequency response changes
/// (power factor (f/f_default)^3), the drift monitor quarantines the model
/// tier, and the fleet degrades to tuning-table/default clocks. With the
/// lifecycle manager attached, a challenger retrained on the drifted
/// response is shadow-evaluated and promoted, restoring model-tier planning
/// for the rest of the run; without it, the fleet stays degraded. The gap
/// between those two rows is the energy the subsystem earns back.
///
/// All rows replay one fixed-seed trace on the same 16-GPU cluster, so they
/// differ only in drift/lifecycle wiring; a drift-free row bounds what full
/// recovery could achieve.

#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "synergy/cluster/simulator.hpp"
#include "synergy/common/csv.hpp"
#include "synergy/common/table.hpp"
#include "synergy/lifecycle/lifecycle_manager.hpp"
#include "synergy/synergy.hpp"

namespace gs = synergy::gpusim;
namespace lc = synergy::lifecycle;
namespace sc = synergy::cluster;
using synergy::common::text_table;

namespace {

constexpr double drift_at_s = 150.0;
// Clock-dependent drift exponent. Negative: the boards age such that *low*
// clocks draw disproportionately more power (factor (f/f_default)^-3), so
// the pre-drift tuning table's downclocked picks — the tier a quarantined
// fleet falls back to — are exactly the clocks the drift made expensive.
constexpr double drift_gamma = -3.0;

synergy::trainer_options quick_options() {
  synergy::trainer_options opt;
  opt.n_microbenchmarks = 24;
  opt.freq_samples = 12;
  opt.repetitions = 1;
  return opt;
}

struct run_row {
  std::string label;
  sc::run_summary summary;
  std::size_t model_plans{0};
  std::size_t lifecycle_events{0};
};

run_row run_case(const std::string& label, const std::filesystem::path& model_dir,
                 bool with_drift, bool with_recovery) {
  sc::cluster_config cluster;
  cluster.n_nodes = 4;
  cluster.gpus_per_node = 4;
  if (with_drift) {
    cluster.drift.at_s = drift_at_s;
    cluster.drift.power_skew = 1.0;
    cluster.drift.freq_exponent = drift_gamma;
  }

  auto guarded = sc::make_guarded_suite_planner("V100", model_dir);
  sc::simulator sim{cluster, sc::make_policy("energy", guarded.plan, std::nullopt)};

  // The lifecycle loop is attached in both drifted rows so the drift monitor
  // is fed identically and quarantines at the same simulated time; the
  // no-recovery row simply forbids retraining (and probing), which is
  // exactly "stay on the degraded tiers until an operator intervenes".
  std::shared_ptr<lc::model_registry> registry;
  std::shared_ptr<lc::lifecycle_manager> manager;
  if (with_drift) {
    registry = std::make_shared<lc::model_registry>();
    registry->install(lc::version_origin::initial, "V100", guarded.guard->planner());
    lc::lifecycle_options opt;
    if (!with_recovery) {
      opt.max_retrains_per_quarantine = 0;
      opt.quarantine_probe_every = 0;
    }
    manager = std::make_shared<lc::lifecycle_manager>(
        registry, gs::make_v100(),
        lc::make_drifted_retrainer(gs::make_v100(), quick_options(), cluster.drift.power_skew,
                                   cluster.drift.freq_exponent),
        opt);
    sim.attach_recovery(guarded.guard, manager);
  }

  sc::trace_config gen;
  gen.n_jobs = 400;
  gen.seed = 7;
  const auto trace = sc::generate_trace(gen);

  run_row row;
  row.label = label;
  row.summary = sim.run(trace);
  row.model_plans = guarded.guard->model_plans();
  row.lifecycle_events = manager ? manager->history().size() : 0;
  return row;
}

}  // namespace

int main() {
  const auto model_dir = std::filesystem::temp_directory_path() /
                         ("synergy_bench_lifecycle." + std::to_string(::getpid()));
  std::filesystem::remove_all(model_dir);
  std::filesystem::create_directories(model_dir);
  {
    synergy::model_trainer trainer{gs::make_v100(), quick_options()};
    synergy::model_store store{model_dir};
    if (!store.save("V100", trainer.train_default()).ok()) {
      std::cerr << "model training/persist failed\n";
      return 1;
    }
  }

  synergy::common::print_banner(std::cout,
                                "Lifecycle recovery: energy of retrain-and-promote vs. "
                                "staying quarantined");

  const std::vector<run_row> rows = {
      run_case("no drift", model_dir, false, false),
      run_case("drift, no recovery", model_dir, true, false),
      run_case("drift, auto recovery", model_dir, true, true),
  };
  const double quarantined_energy = rows[1].summary.total_gpu_energy_j;

  text_table table;
  table.header({"scenario", "jobs", "makespan (s)", "GPU energy (J)", "facility E (J)",
                "model plans", "quar", "promo", "vs no-recovery E"});
  std::vector<std::string> csv_rows;
  for (const auto& r : rows) {
    const auto& s = r.summary;
    table.row({r.label, std::to_string(s.completed) + "/" + std::to_string(s.jobs),
               text_table::fmt(s.makespan_s, 1), text_table::fmt(s.total_gpu_energy_j, 0),
               text_table::fmt(s.facility_energy_j, 0), std::to_string(r.model_plans),
               std::to_string(s.quarantines), std::to_string(s.promotions),
               text_table::fmt(s.total_gpu_energy_j / quarantined_energy, 3)});
    csv_rows.push_back(r.label + "," + std::to_string(s.completed) + "," +
                       synergy::common::csv_writer::num(s.makespan_s) + "," +
                       synergy::common::csv_writer::num(s.total_gpu_energy_j) + "," +
                       synergy::common::csv_writer::num(s.facility_energy_j) + "," +
                       std::to_string(r.model_plans) + "," + std::to_string(s.quarantines) +
                       "," + std::to_string(s.promotions));
  }
  table.print(std::cout);

  std::cout << "\nCSV:\n# trace seed=7, drift at t=" << drift_at_s << "s, gamma=" << drift_gamma
            << "\nscenario,completed,makespan_s,gpu_energy_j,facility_energy_j,"
               "model_plans,quarantines,promotions\n";
  for (const auto& row : csv_rows) std::cout << row << '\n';

  std::cout << "\nnote: 'vs no-recovery E' normalises GPU energy to the stay-quarantined\n"
               "row. The auto-recovery row must promote exactly once and resume model-tier\n"
               "planning (more model plans than the stay-quarantined row) — the energy it\n"
               "earns back is bounded below by the drift-free row. Exits 1 otherwise.\n";
  std::filesystem::remove_all(model_dir);

  const run_row& quarantined = rows[1];
  const run_row& recovered = rows[2];
  const double drift_free_energy = rows[0].summary.total_gpu_energy_j;
  const double energy = recovered.summary.total_gpu_energy_j;
  std::vector<std::string> broken;
  if (recovered.summary.promotions != 1)
    broken.push_back("auto recovery promoted " + std::to_string(recovered.summary.promotions) +
                     " times, not once");
  if (recovered.model_plans <= quarantined.model_plans)
    broken.push_back("auto recovery made " + std::to_string(recovered.model_plans) +
                     " model-tier plans, no more than staying quarantined (" +
                     std::to_string(quarantined.model_plans) + ")");
  if (!(energy >= drift_free_energy && energy < quarantined_energy))
    broken.push_back("auto recovery's GPU energy " + text_table::fmt(energy, 0) +
                     " J is not in [drift-free, stay-quarantined) = [" +
                     text_table::fmt(drift_free_energy, 0) + ", " +
                     text_table::fmt(quarantined_energy, 0) + ") J");
  for (const auto& b : broken) std::cerr << "FAIL: " << b << '\n';
  return broken.empty() ? 0 : 1;
}

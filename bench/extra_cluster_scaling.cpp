/// Cluster-scale energy/makespan study (beyond the paper's single-node
/// evaluation): the same Poisson job trace replayed at 16 -> 256 GPUs under
/// FIFO, EASY backfill, and the energy-aware policy at MIN_EDP / ES_50 /
/// PL_50. The per-kernel savings of Sec. 8.3 compose across a cluster: the
/// energy policy keeps (or beats) backfill's makespan while cutting GPU
/// energy, which is the paper's "scalable energy saving" claim at facility
/// scale.
///
/// The arrival rate scales with the GPU count so every cluster sees the
/// same offered load per GPU; each scale replays one fixed-seed trace under
/// all five schedulers, so rows differ only by policy.
///
/// Acceptance gate (checked, nonzero exit on violation): at every scale the
/// energy policy at ES_50 uses less GPU energy than FIFO, at no more than
/// 1.10x FIFO's makespan.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "synergy/cluster/simulator.hpp"
#include "synergy/common/csv.hpp"
#include "synergy/common/table.hpp"

namespace sc = synergy::cluster;
namespace sm = synergy::metrics;
using synergy::common::text_table;

namespace {

struct policy_case {
  std::string label;
  std::string policy;
  std::optional<sm::target> target;
};

}  // namespace

int main() {
  const std::string device = "V100";
  const auto plan = sc::make_suite_planner(device);

  const std::vector<policy_case> cases = {
      {"fifo", "fifo", std::nullopt},
      {"backfill", "backfill", std::nullopt},
      {"energy MIN_EDP", "energy", sm::MIN_EDP},
      {"energy ES_50", "energy", sm::ES_50},
      {"energy PL_50", "energy", sm::PL_50},
  };
  const std::size_t node_counts[] = {4, 16, 64};  // x4 GPUs: 16, 64, 256

  synergy::common::print_banner(std::cout, "Cluster scaling: energy vs. makespan by policy");

  text_table table;
  table.header({"GPUs", "policy", "jobs", "makespan (s)", "GPU energy (J)",
                "facility E (J)", "mean wait (s)", "util", "vs fifo E", "vs fifo T"});
  std::vector<std::string> csv_rows;
  int failures = 0;

  for (const std::size_t n_nodes : node_counts) {
    sc::cluster_config cc;
    cc.n_nodes = n_nodes;
    cc.gpus_per_node = 4;
    cc.device = device;
    const auto gpus = cc.n_nodes * cc.gpus_per_node;

    sc::trace_config tc;
    tc.seed = 2023;
    tc.n_jobs = 250 * n_nodes / 4;  // grows with the cluster
    tc.mean_interarrival_s = 2.0 * 64.0 / static_cast<double>(gpus);
    const auto trace = sc::generate_trace(tc);

    double fifo_energy = 0.0;
    double fifo_makespan = 0.0;
    for (const auto& pc : cases) {
      sc::simulator sim{cc, sc::make_policy(pc.policy, plan, pc.target)};
      const auto s = sim.run(trace);
      if (pc.label == "fifo") {
        fifo_energy = s.total_gpu_energy_j;
        fifo_makespan = s.makespan_s;
      }
      if (pc.label == "energy ES_50" && !(s.total_gpu_energy_j < fifo_energy &&
                                          s.makespan_s <= 1.10 * fifo_makespan)) {
        std::cerr << "FAIL: at " << gpus << " GPUs ES_50 is at "
                  << s.total_gpu_energy_j / fifo_energy << "x FIFO's energy and "
                  << s.makespan_s / fifo_makespan << "x its makespan\n";
        ++failures;
      }
      table.row({std::to_string(gpus), pc.label,
                 std::to_string(s.completed) + "/" + std::to_string(s.jobs),
                 text_table::fmt(s.makespan_s, 1), text_table::fmt(s.total_gpu_energy_j, 0),
                 text_table::fmt(s.facility_energy_j, 0), text_table::fmt(s.mean_wait_s, 2),
                 text_table::fmt(s.gpu_utilization, 3),
                 text_table::fmt(s.total_gpu_energy_j / fifo_energy, 3),
                 text_table::fmt(s.makespan_s / fifo_makespan, 3)});
      csv_rows.push_back(
          std::to_string(gpus) + "," + pc.label + "," + std::to_string(trace.seed) + "," +
          synergy::common::csv_writer::num(s.makespan_s) + "," +
          synergy::common::csv_writer::num(s.total_gpu_energy_j) + "," +
          synergy::common::csv_writer::num(s.facility_energy_j) + "," +
          synergy::common::csv_writer::num(s.mean_wait_s) + "," +
          synergy::common::csv_writer::num(s.gpu_utilization));
    }
  }
  table.print(std::cout);

  std::cout << "\nCSV:\n# trace seed=2023 policy column names the scheduler\n"
               "gpus,policy,seed,makespan_s,gpu_energy_j,facility_energy_j,mean_wait_s,"
               "gpu_utilization\n";
  for (const auto& row : csv_rows) std::cout << row << '\n';

  std::cout << "\nnote: 'vs fifo' columns normalise to the FIFO row of the same scale;\n"
               "the ES_50 policy must stay below 1.0 on energy within 1.10 on makespan\n"
               "(the repository's acceptance bar for this bench).\n";
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}

#include "layers.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "synergy/cluster/engine.hpp"
#include "synergy/cluster/power_budget.hpp"
#include "synergy/gpusim/device_spec.hpp"
#include "synergy/gpusim/dvfs_model.hpp"
#include "synergy/obs/energy_ledger.hpp"
#include "synergy/sched/controller.hpp"
#include "synergy/sched/plugin.hpp"
#include "synergy/workloads/benchmark.hpp"

namespace replaybench {

namespace sc = synergy::cluster;

std::optional<sc::placement> timed_policy::place(const sc::queued_job& job,
                                                 const sc::cluster_view& view) {
  const auto t0 = bench_clock::now();
  auto pl = inner_->place(job, view);
  stats_->place_s += seconds_since(t0);
  ++stats_->place_calls;
  if (pl) ++stats_->place_ok;
  return pl;
}

bool timed_policy::defer(const sc::queued_job& job, const sc::cluster_view& view) const {
  const auto t0 = bench_clock::now();
  const bool held = inner_->defer(job, view);
  stats_->defer_s += seconds_since(t0);
  ++stats_->defer_calls;
  return held;
}

sc::plan_fn timed_plan(sc::plan_fn inner, plan_stats& stats) {
  return [inner = std::move(inner), st = &stats](const std::string& kernel,
                                                 const synergy::metrics::target& target) {
    const auto t0 = bench_clock::now();
    auto planned = inner(kernel, target);
    const double s = seconds_since(t0);
    st->total_s += s;
    st->call_us.push_back(s * 1e6);
    if (st->seen.insert(kernel + '/' + target.to_string()).second) st->cold_us.push_back(s * 1e6);
    return planned;
  };
}

namespace {

constexpr int best_of = 5;
/// Folds loop results into a value the optimiser must keep.
volatile double g_sink = 0.0;

double event_cost_s() {
  // Closures capture 24 bytes, like the simulator's [this, id, epoch]
  // completions, so std::function allocates exactly as it does in a replay.
  constexpr std::size_t n = 50000;
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < best_of; ++r) {
    std::uint64_t fired = 0;
    sc::event_engine engine;
    const auto t0 = bench_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const int id = static_cast<int>(i);
      const std::uint64_t epoch = i * 7;
      engine.at(static_cast<double>((i * 2654435761ULL) % 100000) * 1e-2,
                [&fired, id, epoch] { fired += static_cast<std::uint64_t>(id) + epoch; });
    }
    engine.run();
    best = std::min(best, seconds_since(t0) / static_cast<double>(n));
    g_sink = g_sink + static_cast<double>(fired);
  }
  return best;
}

double evaluate_cost_s() {
  const auto spec = synergy::gpusim::make_device_spec("V100");
  const synergy::gpusim::dvfs_model model;
  std::vector<synergy::gpusim::kernel_profile> profiles;
  for (const auto& name : synergy::workloads::names()) {
    auto p = synergy::workloads::find(name).info.to_profile(1);
    p.work_items = static_cast<double>(1 << 28) * 600.0;
    profiles.push_back(std::move(p));
  }
  const auto memory = spec.default_config().memory;
  constexpr std::size_t n = 20000;
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < best_of; ++r) {
    double acc = 0.0;
    const auto t0 = bench_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const auto& clock = spec.core_clocks[i % spec.core_clocks.size()];
      acc += model.evaluate(spec, profiles[i % profiles.size()], {memory, clock}).energy.value;
    }
    best = std::min(best, seconds_since(t0) / static_cast<double>(n));
    g_sink = g_sink + acc;
  }
  return best;
}

double rebalance_cost_s(std::size_t n_nodes, std::size_t gpus_per_node, double cap_w) {
  std::vector<synergy::sched::node_config> nodes;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    synergy::sched::node_config cfg;
    cfg.name = "cn" + std::to_string(i);
    cfg.gpus.assign(gpus_per_node, "V100");
    cfg.gres.insert(synergy::sched::nvgpufreq_plugin::gres_tag);
    nodes.push_back(std::move(cfg));
  }
  synergy::sched::controller ctl{std::move(nodes)};
  sc::power_budget budget{ctl, cap_w};
  for (std::size_t i = 0; i < n_nodes; ++i)
    for (std::size_t g = 0; g < gpus_per_node; ++g)
      if ((i + g) % 3 != 0) budget.gpu_busy(i, g, 120.0 + static_cast<double>((i * 7 + g) % 100));
  constexpr std::size_t n = 500;
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < best_of; ++r) {
    const auto t0 = bench_clock::now();
    for (std::size_t i = 0; i < n; ++i) budget.rebalance();
    best = std::min(best, seconds_since(t0) / static_cast<double>(n));
  }
  g_sink = g_sink + static_cast<double>(budget.rebalances());
  return best;
}

double charge_cost_s() {
  // One fresh cell per completion, the pattern a replay produces.
  namespace obs = synergy::obs;
  constexpr std::size_t n = 20000;
  std::vector<obs::charge_key> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    keys.push_back({"cn" + std::to_string(i % 64), "V100", "job" + std::to_string(i),
                    "kernel" + std::to_string(i % 23)});
  obs::energy_ledger ledger;
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < best_of; ++r) {
    ledger.reset();
    const auto t0 = bench_clock::now();
    for (std::size_t i = 0; i < n; ++i)
      ledger.charge(keys[i], static_cast<obs::cause>(i % obs::n_causes), 1.0 + static_cast<double>(i));
    best = std::min(best, seconds_since(t0) / static_cast<double>(n));
  }
  g_sink = g_sink + ledger.total_j();
  return best;
}

double econ_charge_cost_s(const synergy::econ::econ_config& econ, std::size_t n_nodes) {
  if (!econ.usable()) return 0.0;
  constexpr std::size_t n = 100000;
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < best_of; ++r) {
    synergy::econ::cost_meter meter{econ, n_nodes};
    const auto t0 = bench_clock::now();
    for (std::size_t i = 0; i < n; ++i)
      meter.charge(static_cast<synergy::obs::cause>(i % synergy::obs::n_causes),
                   1e4 + static_cast<double>(i), static_cast<double>(i % 5000));
    best = std::min(best, seconds_since(t0) / static_cast<double>(n));
    g_sink = g_sink + meter.attributed_cost_usd();
  }
  return best;
}

}  // namespace

unit_costs measure_unit_costs(std::size_t n_nodes, std::size_t gpus_per_node,
                              double facility_cap_w, const synergy::econ::econ_config& econ) {
  // An uncapped budget never rebalances; price the call under a cap sized to
  // a loaded cluster's draw, so every workload reports a comparable figure.
  const double cap_w = facility_cap_w > 0.0
                           ? facility_cap_w
                           : static_cast<double>(n_nodes) * (350.0 + 200.0 * gpus_per_node);
  unit_costs u;
  u.event_s = event_cost_s();
  u.evaluate_s = evaluate_cost_s();
  u.rebalance_s = rebalance_cost_s(n_nodes, gpus_per_node, cap_w);
  u.charge_s = charge_cost_s();
  u.econ_charge_s = econ_charge_cost_s(econ, n_nodes);
  return u;
}

}  // namespace replaybench

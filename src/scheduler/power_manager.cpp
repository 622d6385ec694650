#include "synergy/sched/power_manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "synergy/telemetry/telemetry.hpp"

namespace synergy::sched {

double power_manager::node_demand(const node& n) const {
  double demand = n.config().host_power_w;
  for (const auto& dev : n.devices()) demand += dev.board()->instantaneous_power().value;
  return demand;
}

void power_manager::rebalance() {
  const std::size_t n_nodes = ctl_->node_count();
  std::vector<double> demand(n_nodes, 0.0);
  for (std::size_t i = 0; i < n_nodes; ++i) demand[i] = node_demand(ctl_->node_at(i));
  rebalance_with_demand(demand);
}

void power_manager::rebalance_with_demand(const std::vector<double>& demand_w) {
  SYNERGY_SPAN_VAR(span, telemetry::category::sched, "sched.power_rebalance");
  SYNERGY_COUNTER_ADD("sched.power_rebalances", 1);
  const std::size_t n_nodes = ctl_->node_count();
  if (demand_w.size() != n_nodes)
    throw std::invalid_argument("power_manager: demand entries != node count");
  if (n_nodes == 0) return;
  span.arg("nodes", static_cast<double>(n_nodes));
  span.arg("cluster_cap_w", cluster_cap_w_);
  const double fair_share = cluster_cap_w_ / static_cast<double>(n_nodes);

  // Pass 1: demand-aware shares. Under-demand nodes keep demand + 5%
  // headroom; the surplus pool is split among over-demand nodes.
  const std::vector<double>& demand = demand_w;
  double surplus = 0.0;
  std::size_t hungry = 0;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    if (demand[i] * 1.05 < fair_share) surplus += fair_share - demand[i] * 1.05;
    else ++hungry;
  }

  node_caps_.assign(n_nodes, fair_share);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    if (demand[i] * 1.05 < fair_share) {
      node_caps_[i] = demand[i] * 1.05;
    } else if (hungry > 0) {
      node_caps_[i] = fair_share + surplus / static_cast<double>(hungry);
    }
  }

  // Pass 2: enforce each node's cap by locking GPU clock bounds.
  const auto root = vendor::user_context::root();
  for (std::size_t i = 0; i < n_nodes; ++i) {
    node& n = ctl_->node_at(i);
    const double gpu_budget_total = std::max(0.0, node_caps_[i] - n.config().host_power_w);
    const auto& devices = n.devices();
    if (devices.empty()) continue;
    const double per_gpu = gpu_budget_total / static_cast<double>(devices.size());
    // Every board of a node gets the same budget, and a node builds each
    // board from its name, so a board named like the one before it shares
    // that board's cap clock.
    const auto& names = n.config().gpus;
    common::megahertz cap_clock{};
    for (std::size_t g = 0; g < devices.size(); ++g) {
      if (g == 0 || names[g] != names[g - 1])
        cap_clock = max_core_clock_under_cap(devices[g].spec(), per_gpu);
      const auto binding = n.ctx()->bind(devices[g]);
      (void)binding.library->set_clock_bounds(root, binding.index,
                                              devices[g].spec().min_core_clock(), cap_clock);
    }
  }
}

void power_manager::release() {
  const auto root = vendor::user_context::root();
  for (std::size_t i = 0; i < ctl_->node_count(); ++i) {
    node& n = ctl_->node_at(i);
    for (const auto& dev : n.devices()) {
      const auto binding = n.ctx()->bind(dev);
      (void)binding.library->clear_clock_bounds(root, binding.index);
    }
  }
  node_caps_.clear();
}

}  // namespace synergy::sched

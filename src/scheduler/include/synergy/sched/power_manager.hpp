#pragma once

/// \file power_manager.hpp
/// Cluster-level power capping (paper Sec. 2.3 background).
///
/// SLURM's power management takes a configured system power cap and
/// distributes it across nodes, lowering the caps of nodes that consume
/// less than their share and redistributing the headroom. The simulation
/// enforces a node's cap by locking GPU clock bounds (the root-only
/// min/max bounds of Sec. 7.1) so no application clock can exceed the
/// budgeted power.

#include <vector>

#include "synergy/sched/controller.hpp"

namespace synergy::sched {

// Worst-case power and cap-to-clock conversion live in gpusim
// (gpusim::worst_case_power / gpusim::max_core_clock_under_cap); re-exported
// here for scheduler clients.
using gpusim::max_core_clock_under_cap;
using gpusim::worst_case_power;

class power_manager {
 public:
  /// `cluster_cap_w` covers every node's host + GPUs.
  power_manager(controller& ctl, double cluster_cap_w)
      : ctl_(&ctl), cluster_cap_w_(cluster_cap_w) {}

  /// Per-node cap assignment from the last rebalance (watts).
  [[nodiscard]] const std::vector<double>& node_caps() const { return node_caps_; }

  /// Redistribute the cluster cap: every node starts from an equal share;
  /// nodes whose current demand is below their share donate the surplus,
  /// which is split evenly among the over-demand nodes (configurable
  /// threshold, as in SLURM's power balancing). Then clock bounds are
  /// locked on every GPU so each node's worst-case draw fits its cap.
  void rebalance();

  /// Same redistribution, but with per-node demand supplied by the caller
  /// instead of read from the live boards, for a caller whose boards'
  /// virtual clocks are decoupled from its timeline, so that instantaneous
  /// board power is not a meaningful demand signal there. (The cluster
  /// simulator does not call it: its power budget holds the facility cap at
  /// admission.)
  /// `demand_w` must have one entry per node (throws std::invalid_argument
  /// otherwise — e.g. a node joined or left since the demand was sampled).
  void rebalance_with_demand(const std::vector<double>& demand_w);

  /// Remove all clock bounds (uncapped operation).
  void release();

  [[nodiscard]] double cluster_cap_w() const { return cluster_cap_w_; }
  void set_cluster_cap_w(double cap) { cluster_cap_w_ = cap; }

 private:
  /// Current demand estimate of a node: host power + instantaneous GPU
  /// board power.
  [[nodiscard]] double node_demand(const node& n) const;

  controller* ctl_;
  double cluster_cap_w_;
  std::vector<double> node_caps_;
};

}  // namespace synergy::sched

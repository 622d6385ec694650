#pragma once

/// \file power_budget.hpp
/// Facility-wide power budgeting for the cluster simulator.
///
/// SLURM's power management (paper Sec. 2.3) distributes a system cap over
/// nodes. This budget keeps the *modelled* facility draw — host power plus
/// per-GPU busy/idle power on the simulation timeline — and enforces the cap
/// at admission: a job may only start if the facility draw with the job
/// added stays under the cap; if its planned frequency does not fit, the
/// plan is demoted down the clock table until it does (counted as a
/// demotion), and the job waits if even the lowest clock is too hot.
///
/// The budget holds draws, not nodes: each node's host watts and each of
/// its GPUs' idle watts, given at construction. Every draw change (a
/// placement, a completion, a governor clock move, a node loss or restart)
/// is a rebalance point, which the budget counts and traces. It locks no
/// clocks: admission prices clocks with the DVFS model against
/// headroom_w(). sched::power_manager is the scheduler-level model of
/// SLURM's per-node cap redistribution.

#include <cstddef>
#include <optional>
#include <vector>

namespace synergy::sched { class controller; }  // synergy/sched/controller.hpp

namespace synergy::cluster {

class power_budget {
 public:
  /// Node i draws `host_w[i]` for its host and `idle_w[i][g]` for its GPU g
  /// while that GPU is idle; the two lists must name the same nodes.
  /// `facility_cap_w` covers hosts + GPUs across every node; <= 0 disables
  /// capping (admission always passes, no rebalances).
  power_budget(std::vector<double> host_w, std::vector<std::vector<double>> idle_w,
               double facility_cap_w);
  /// The draws of `ctl`'s nodes: each node's host power and its boards'
  /// idle power, read once here.
  power_budget(const sched::controller& ctl, double facility_cap_w);

  [[nodiscard]] bool capped() const { return cap_w_ > 0.0; }
  [[nodiscard]] double cap_w() const { return cap_w_; }

  /// Modelled facility draw right now (hosts + busy GPU job power + idle
  /// GPU floor). The sum is kept until the next gpu_busy()/gpu_idle(); the
  /// inventory cannot change under a budget (the simulator builds a fresh
  /// one for every node removal or restart).
  [[nodiscard]] double facility_power_w() const;

  /// Watts still available under the cap (+inf when uncapped).
  [[nodiscard]] double headroom_w() const;

  /// Account one GPU switching to a job drawing `busy_power_w` (board
  /// average power at the job's operating point).
  void gpu_busy(std::size_t node, std::size_t gpu, double busy_power_w);

  /// Account one GPU returning to idle.
  void gpu_idle(std::size_t node, std::size_t gpu);

  /// Mark a rebalance point after a draw change: counts it and emits the
  /// `cluster.cap_rebalance` trace instant. No-op when uncapped.
  void rebalance();

  [[nodiscard]] std::size_t rebalances() const { return rebalances_; }
  [[nodiscard]] std::size_t demotions() const { return demotions_; }
  void count_demotion() { ++demotions_; }

 private:
  double cap_w_;
  std::vector<double> host_w_;
  /// Each GPU's idle floor, indexed [node][gpu].
  std::vector<std::vector<double>> idle_w_;
  /// Modelled per-GPU draw, indexed [node][gpu]; idle floor when no job.
  std::vector<std::vector<double>> gpu_power_w_;
  /// facility_power_w() since the last draw change; empty when stale.
  mutable std::optional<double> facility_w_;
  std::size_t rebalances_{0};
  std::size_t demotions_{0};
};

}  // namespace synergy::cluster

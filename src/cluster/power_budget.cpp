#include "synergy/cluster/power_budget.hpp"

#include <limits>
#include <utility>

#include "synergy/sched/controller.hpp"
#include "synergy/telemetry/telemetry.hpp"

namespace synergy::cluster {

power_budget::power_budget(std::vector<double> host_w, std::vector<std::vector<double>> idle_w,
                           double facility_cap_w)
    : cap_w_(facility_cap_w),
      host_w_(std::move(host_w)),
      idle_w_(std::move(idle_w)),
      gpu_power_w_(idle_w_) {}

power_budget::power_budget(const sched::controller& ctl, double facility_cap_w)
    : cap_w_(facility_cap_w) {
  for (std::size_t i = 0; i < ctl.node_count(); ++i) {
    host_w_.push_back(ctl.node_at(i).config().host_power_w);
    auto& idle = idle_w_.emplace_back();
    for (const auto& dev : ctl.node_at(i).devices()) idle.push_back(dev.spec().idle_power_w);
  }
  gpu_power_w_ = idle_w_;
}

double power_budget::facility_power_w() const {
  if (!facility_w_) {
    double total = 0.0;
    for (std::size_t i = 0; i < host_w_.size(); ++i) {
      total += host_w_[i];
      for (const double w : gpu_power_w_[i]) total += w;
    }
    facility_w_ = total;
  }
  return *facility_w_;
}

double power_budget::headroom_w() const {
  if (!capped()) return std::numeric_limits<double>::infinity();
  return cap_w_ - facility_power_w();
}

void power_budget::gpu_busy(std::size_t node, std::size_t gpu, double busy_power_w) {
  gpu_power_w_.at(node).at(gpu) = busy_power_w;
  facility_w_.reset();
}

void power_budget::gpu_idle(std::size_t node, std::size_t gpu) {
  gpu_power_w_.at(node).at(gpu) = idle_w_.at(node).at(gpu);
  facility_w_.reset();
}

void power_budget::rebalance() {
  if (!capped()) return;
  ++rebalances_;
  SYNERGY_COUNTER_ADD("cluster.cap_rebalances", 1);
  SYNERGY_INSTANT(telemetry::category::sched, "cluster.cap_rebalance",
                  {"facility_w", facility_power_w()}, {"cap_w", cap_w_});
}

}  // namespace synergy::cluster

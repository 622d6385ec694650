#include "synergy/cluster/power_budget.hpp"

#include <limits>

#include "synergy/telemetry/telemetry.hpp"

namespace synergy::cluster {

power_budget::power_budget(sched::controller& ctl, double facility_cap_w)
    : ctl_(&ctl), cap_w_(facility_cap_w) {
  gpu_power_w_.resize(ctl.node_count());
  for (std::size_t i = 0; i < ctl.node_count(); ++i) {
    const auto& n = ctl.node_at(i);
    gpu_power_w_[i].assign(n.devices().size(), 0.0);
    for (std::size_t g = 0; g < n.devices().size(); ++g)
      gpu_power_w_[i][g] = n.devices()[g].spec().idle_power_w;
  }
}

double power_budget::facility_power_w() const {
  if (!facility_w_) {
    double total = 0.0;
    for (std::size_t i = 0; i < ctl_->node_count(); ++i) {
      total += ctl_->node_at(i).config().host_power_w;
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
  gpu_power_w_.at(node).at(gpu) =
      ctl_->node_at(node).devices().at(gpu).spec().idle_power_w;
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

#include "synergy/gpusim/dvfs_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "synergy/telemetry/telemetry.hpp"

namespace synergy::gpusim {

using common::frequency_config;
using common::joules;
using common::megahertz;
using common::seconds;
using common::watts;

namespace {

/// Smooth maximum with exponent p: approaches max(a, b) for large p but keeps
/// a differentiable crossover, modelling partial compute/memory overlap near
/// the roofline ridge point.
double smooth_max(double a, double b, double p = 4.0) {
  if (a <= 0.0) return b;
  if (b <= 0.0) return a;
  const double m = std::max(a, b);
  const double ra = a / m;
  const double rb = b / m;
  return m * std::pow(std::pow(ra, p) + std::pow(rb, p), 1.0 / p);
}

}  // namespace

double dvfs_model::weighted_compute_cycles(const kernel_profile& profile) const {
  const static_features& k = profile.features;
  const double per_item = k.int_add * costs_.int_add + k.int_mul * costs_.int_mul +
                          k.int_div * costs_.int_div + k.int_bw * costs_.int_bw +
                          k.float_add * costs_.float_add + k.float_mul * costs_.float_mul +
                          k.float_div * costs_.float_div + k.sf * costs_.sf +
                          k.loc_access * costs_.loc_access;
  return per_item * profile.work_items;
}

seconds dvfs_model::compute_time(const device_spec& spec, const kernel_profile& profile,
                                 megahertz f_core) const {
  if (f_core.value <= 0.0) throw std::invalid_argument("non-positive core clock");
  const double lanes =
      static_cast<double>(spec.num_compute_units) * static_cast<double>(spec.lanes_per_unit);
  const double issue_rate = lanes * f_core.hz() * profile.compute_efficiency;  // lane-cycles/s
  return seconds{weighted_compute_cycles(profile) / issue_rate};
}

seconds dvfs_model::memory_time(const device_spec& spec, const kernel_profile& profile,
                                megahertz f_mem) const {
  const double bytes = profile.dram_bytes();
  if (bytes <= 0.0) return seconds{0.0};
  const double bw_scale = f_mem.value / spec.memory_clock.value;
  const double bw =
      spec.mem_bandwidth_gbs * 1.0e9 * bw_scale * profile.coalescing_efficiency;  // B/s
  return seconds{bytes / bw};
}

kernel_cost dvfs_model::evaluate(const device_spec& spec, const kernel_profile& profile,
                                 frequency_config config) const {
  SYNERGY_COUNTER_ADD("gpusim.dvfs_evaluations", 1);
  const seconds t_c = compute_time(spec, profile, config.core);
  const seconds t_m = memory_time(spec, profile, config.memory);
  const double busy = smooth_max(t_c.value, t_m.value);
  const seconds total{busy + spec.launch_overhead.value};

  const double u_compute = busy > 0.0 ? t_c.value / busy : 0.0;
  const double u_memory = busy > 0.0 ? t_m.value / busy : 0.0;

  // Dynamic power envelopes: at f_max / V_max with both pipelines saturated
  // the board draws its TDP.
  const double dyn_envelope = spec.max_board_power_w - spec.idle_power_w;
  const double p_mem_max = dyn_envelope * spec.mem_power_fraction;
  const double p_core_max = dyn_envelope - p_mem_max;

  const voltage_curve& vf = spec.vf_curve;
  const double v = vf.voltage_at(config.core);
  const double v_ratio = v / vf.v_max;
  const double f_ratio = config.core.value / vf.f_max.value;

  // While a kernel is resident the core domain never idles completely:
  // instruction issue, address generation, and the clock tree keep a floor
  // of activity even when the DRAM pipeline is the bottleneck. This floor is
  // what gives memory-bound kernels their large core-DVFS energy headroom
  // (paper Fig. 7a: MatMul saves 33% energy at 5% performance loss).
  constexpr double activity_floor = 0.40;
  const double core_activity = activity_floor + (1.0 - activity_floor) * u_compute;
  const double p_core = p_core_max * v_ratio * v_ratio * f_ratio * core_activity;
  const double mem_ratio = config.memory.value / spec.memory_clock.value;
  const double p_mem = p_mem_max * mem_ratio * u_memory;

  // DRAM standby power (refresh, clock distribution) is part of the
  // measured idle floor at the nominal memory clock; selecting a lower
  // memory clock (Titan-X-class parts, Sec. 2.1) reclaims a share of it —
  // the reason compute-bound kernels profit from memory DVFS.
  constexpr double mem_standby_share = 0.35;
  const double idle_eff =
      spec.idle_power_w * (1.0 - mem_standby_share * (1.0 - mem_ratio));

  kernel_cost cost;
  cost.time = total;
  cost.avg_power = watts{idle_eff + p_core + p_mem};
  cost.energy = cost.avg_power * cost.time;
  cost.compute_utilization = u_compute;
  cost.memory_utilization = u_memory;
  return cost;
}

double worst_case_power(const device_spec& spec, common::megahertz core_clock) {
  const auto& vf = spec.vf_curve;
  const double v_ratio = vf.voltage_at(core_clock) / vf.v_max;
  const double f_ratio = core_clock.value / vf.f_max.value;
  const double dyn = spec.max_board_power_w - spec.idle_power_w;
  // Both pipelines saturated at the nominal memory clock.
  return spec.idle_power_w +
         dyn * (spec.mem_power_fraction +
                (1.0 - spec.mem_power_fraction) * v_ratio * v_ratio * f_ratio);
}

common::megahertz max_core_clock_under_cap(const device_spec& spec, double budget_w) {
  // Worst-case power never falls as the clock rises (see the header), so the
  // clocks that fit are a prefix of the table and the answer is its last entry.
  const auto fits = [&](megahertz f) { return worst_case_power(spec, f) <= budget_w; };
  const auto end = std::partition_point(spec.core_clocks.begin(), spec.core_clocks.end(), fits);
  return end == spec.core_clocks.begin() ? spec.min_core_clock() : *(end - 1);
}

watts dvfs_model::idle_power(const device_spec& spec, frequency_config config) const {
  // A small clock-tree/leakage term grows with the operating point even when
  // no kernel is resident (~6% of the dynamic envelope at f_max).
  const double dyn_envelope = spec.max_board_power_w - spec.idle_power_w;
  const voltage_curve& vf = spec.vf_curve;
  const double v_ratio = vf.voltage_at(config.core) / vf.v_max;
  const double f_ratio = config.core.value / vf.f_max.value;
  return watts{spec.idle_power_w + 0.06 * dyn_envelope * v_ratio * v_ratio * f_ratio};
}

}  // namespace synergy::gpusim

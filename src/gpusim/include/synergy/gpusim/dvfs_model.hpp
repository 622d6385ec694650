#pragma once

/// \file dvfs_model.hpp
/// Analytic DVFS performance & power model.
///
/// This module is the physics substitute for the paper's real GPUs. It maps
/// (device spec, kernel profile, frequency config) to execution time, average
/// power, and energy:
///
///   t_compute = weighted_cycles / (units * lanes * f_core * efficiency)
///   t_memory  = dram_bytes / (bandwidth(f_mem) * coalescing)
///   t         = smooth_max(t_compute, t_memory) + launch_overhead
///   P         = P_idle + P_core_max * (V(f)/V_max)^2 * (f/f_max) * u_compute
///                      + P_mem_max  * u_memory
///   E         = P * t
///
/// Consequences that reproduce the paper's observations without per-benchmark
/// tuning: compute-bound kernels scale with core frequency (wide Pareto
/// speedup range, e.g. Sobel3 in Fig. 7b); memory-bound kernels have flat
/// runtime but large V^2 f power headroom (e.g. MatMul in Fig. 7a, 33% energy
/// saving at 5% performance loss); the static-power term makes very low
/// frequencies energy-inefficient, producing an interior energy-optimal
/// frequency (Fig. 2a).

#include "synergy/common/units.hpp"
#include "synergy/gpusim/device_spec.hpp"
#include "synergy/gpusim/kernel_profile.hpp"

namespace synergy::gpusim {

/// Issue cost, in lane-cycles, of one instruction of each feature class.
/// Ratios follow published GPU instruction throughput tables: full-rate ALU
/// ops cost 1, integer multiply ~2 (emulated on some parts), divides are
/// iterative Newton-Raphson sequences, special functions (exp/log/erf/trig)
/// expand to multi-instruction libdevice sequences on quarter-rate SFUs
/// (~20 effective lane-cycles), local-memory accesses pay shared-memory
/// bank latency.
struct op_costs {
  double int_add{1.0};
  double int_mul{2.0};
  double int_div{20.0};
  double int_bw{1.0};
  double float_add{1.0};
  double float_mul{1.0};
  double float_div{16.0};
  double sf{20.0};
  double loc_access{2.0};
};

/// Cost of one kernel execution at a given operating point.
struct kernel_cost {
  common::seconds time{0.0};
  common::watts avg_power{0.0};
  common::joules energy{0.0};
  /// Fraction of runtime the compute pipeline is busy (diagnostic).
  double compute_utilization{0.0};
  /// Fraction of runtime the DRAM pipeline is busy (diagnostic).
  double memory_utilization{0.0};
};

/// Deterministic analytic model; a single immutable instance serves any
/// number of devices and threads.
class dvfs_model {
 public:
  dvfs_model() = default;
  explicit dvfs_model(op_costs costs) : costs_(costs) {}

  /// Total weighted compute lane-cycles for one launch of `profile`.
  [[nodiscard]] double weighted_compute_cycles(const kernel_profile& profile) const;

  /// Compute-pipeline time at core clock f_core.
  [[nodiscard]] common::seconds compute_time(const device_spec& spec,
                                             const kernel_profile& profile,
                                             common::megahertz f_core) const;

  /// Memory-pipeline time at memory clock f_mem (bandwidth scales linearly
  /// with the memory clock relative to the nominal clock).
  [[nodiscard]] common::seconds memory_time(const device_spec& spec,
                                            const kernel_profile& profile,
                                            common::megahertz f_mem) const;

  /// Full evaluation: time, average power, and energy at `config`.
  [[nodiscard]] kernel_cost evaluate(const device_spec& spec, const kernel_profile& profile,
                                     common::frequency_config config) const;

  /// Board power when no kernel is resident but clocks are set to `config`
  /// (idle floor plus a small clock-tree term that grows with frequency).
  [[nodiscard]] common::watts idle_power(const device_spec& spec,
                                         common::frequency_config config) const;

  [[nodiscard]] const op_costs& costs() const { return costs_; }

 private:
  op_costs costs_{};
};

/// Worst-case (fully active) board power at a core clock — the envelope a
/// power cap must contain. Used by the NVML power-limit emulation and the
/// cluster power manager.
[[nodiscard]] double worst_case_power(const device_spec& spec, common::megahertz core_clock);

/// Largest supported core clock whose worst-case board power stays within
/// `budget_w`; the lowest clock if none qualifies. A binary search over the
/// clock table, so it requires that worst_case_power never decreases along
/// `spec.core_clocks`. Every spec make_device_spec returns meets this: its
/// clocks ascend from a positive value, 0 <= v_min <= v_max, f_max > 0,
/// TDP >= idle power and the memory share lies in [0, 1].
[[nodiscard]] common::megahertz max_core_clock_under_cap(const device_spec& spec,
                                                         double budget_w);

}  // namespace synergy::gpusim

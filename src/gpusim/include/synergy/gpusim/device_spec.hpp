#pragma once

/// \file device_spec.hpp
/// Static description of a simulated GPU product.
///
/// Specs bundle the architectural parameters needed by the DVFS model
/// (compute width, bandwidth, voltage/frequency curve, power envelope) with
/// the vendor-visible frequency tables of the paper's Figure 1:
///   - NVIDIA V100: 196 core configs, 135-1530 MHz, memory fixed at 877 MHz
///   - NVIDIA A100:  81 core configs, 210-1410 MHz, memory fixed at 1215 MHz
///   - AMD MI100:    16 core levels,  300-1502 MHz, memory fixed at 1200 MHz

#include <cstddef>
#include <string>
#include <vector>

#include "synergy/common/units.hpp"

namespace synergy::gpusim {

enum class vendor_kind { nvidia, amd, intel };

[[nodiscard]] constexpr const char* to_string(vendor_kind v) {
  switch (v) {
    case vendor_kind::nvidia: return "NVIDIA";
    case vendor_kind::amd: return "AMD";
    case vendor_kind::intel: return "Intel";
  }
  return "?";
}

/// Voltage/frequency curve: voltage is flat at v_min up to f_knee, then rises
/// linearly to v_max at f_max. This is the standard near-threshold DVFS shape
/// (paper Sec. 1, ref. [23]) that produces an interior energy-optimal
/// frequency.
struct voltage_curve {
  double v_min{0.75};
  double v_max{1.05};
  common::megahertz f_knee{500.0};
  common::megahertz f_max{1500.0};

  /// Supply voltage at core frequency f (volts).
  [[nodiscard]] double voltage_at(common::megahertz f) const;
};

/// Complete static description of a GPU product.
struct device_spec {
  std::string name;
  vendor_kind vendor{vendor_kind::nvidia};

  // --- compute resources -------------------------------------------------
  std::size_t num_compute_units{80};  ///< SMs (NVIDIA) or CUs (AMD)
  std::size_t lanes_per_unit{64};     ///< FP32 lanes per unit

  // --- memory system -----------------------------------------------------
  /// Peak DRAM bandwidth (GB/s) at the nominal memory frequency.
  double mem_bandwidth_gbs{900.0};
  /// Local (shared) memory bytes moved per lane per core cycle.
  double local_bytes_per_lane_cycle{4.0};

  // --- power model ---------------------------------------------------------
  double idle_power_w{40.0};        ///< board power with clocks gated
  double max_board_power_w{300.0};  ///< TDP at f_max with full activity
  /// Fraction of the dynamic envelope consumed by the memory system when the
  /// DRAM pipeline is fully busy (memory clock is fixed on HBM parts).
  double mem_power_fraction{0.30};
  voltage_curve vf_curve;

  // --- frequency tables (vendor-visible, paper Fig. 1) --------------------
  common::megahertz memory_clock{877.0};  ///< nominal (default) memory clock
  /// Selectable memory clocks. HBM parts expose exactly {memory_clock};
  /// GDDR parts like the Titan X expose several (paper Sec. 2.1).
  std::vector<common::megahertz> memory_clocks;
  std::vector<common::megahertz> core_clocks;  ///< ascending supported clocks
  std::size_t default_clock_index{0};          ///< driver default application clock

  /// Per-kernel launch latency charged on every execution.
  common::seconds launch_overhead{5.0e-6};

  [[nodiscard]] common::megahertz default_core_clock() const {
    return core_clocks.at(default_clock_index);
  }
  [[nodiscard]] common::megahertz max_core_clock() const { return core_clocks.back(); }
  [[nodiscard]] common::megahertz min_core_clock() const { return core_clocks.front(); }

  /// Default (memory, core) operating point.
  [[nodiscard]] common::frequency_config default_config() const {
    return {memory_clock, default_core_clock()};
  }

  /// True if f is exactly one of the supported core clocks.
  [[nodiscard]] bool supports_core_clock(common::megahertz f) const;

  /// Index in core_clocks of the supported clock closest to f. A tie goes
  /// to the lower clock; -inf and NaN snap to the lowest clock, +inf to the
  /// highest. A binary search, so core_clocks must ascend strictly, as in
  /// every spec make_device_spec returns.
  [[nodiscard]] std::size_t nearest_core_clock_index(common::megahertz f) const;

  /// Supported clock closest to f: core_clocks[nearest_core_clock_index(f)].
  [[nodiscard]] common::megahertz nearest_core_clock(common::megahertz f) const;

  /// Selectable memory clocks ({memory_clock} when none were listed).
  [[nodiscard]] std::vector<common::megahertz> supported_memory_clocks() const;

  /// True if f is a selectable memory clock.
  [[nodiscard]] bool supports_memory_clock(common::megahertz f) const;
};

/// NVIDIA Tesla V100 (SXM2 16 GB): 80 SMs, 900 GB/s HBM2, 300 W.
/// 196 application clocks from 135 to 1530 MHz; the driver default
/// application clock is 1312 MHz (below f_max, so speedups > 1 are possible —
/// paper Sec. 8.2).
[[nodiscard]] device_spec make_v100();

/// NVIDIA A100 (SXM4 40 GB): 108 SMs, 1555 GB/s HBM2e, 400 W.
/// 81 application clocks from 210 to 1410 MHz in 15 MHz steps; default 1410.
[[nodiscard]] device_spec make_a100();

/// AMD Instinct MI100: 120 CUs, 1228 GB/s HBM2, 290 W.
/// 16 sclk performance levels from 300 to 1502 MHz. AMD exposes no explicit
/// default application clock (auto-DVFS tracks the workload); the simulated
/// default is the top level, which matches the paper's observation that on
/// MI100 the default configuration is always the fastest.
[[nodiscard]] device_spec make_mi100();

/// NVIDIA Titan X (Pascal, GDDR5X): the paper's Sec. 2.1 example of a GPU
/// that exposes *memory* frequency scaling too — four selectable memory
/// clocks next to the core clock table. Enables 2-D (memory, core)
/// frequency optimisation; not part of the paper's evaluated devices.
[[nodiscard]] device_spec make_titanx();

/// Intel Data Center GPU Max 1550 ("Ponte Vecchio"): 128 Xe cores,
/// 3277 GB/s HBM2e, 600 W. Frequency range 900-1600 MHz in 50 MHz steps.
/// Not part of the paper's evaluation; included to demonstrate the
/// portability claim of Sec. 2.1 (Level Zero as a third vendor interface).
[[nodiscard]] device_spec make_pvc();

/// Look up a spec by product name ("V100", "A100", "MI100", "PVC",
/// case-insensitive); throws std::invalid_argument for unknown names.
[[nodiscard]] device_spec make_device_spec(const std::string& name);

/// The paper's evaluated devices (excludes extensions such as PVC).
[[nodiscard]] std::vector<std::string> known_device_names();

}  // namespace synergy::gpusim

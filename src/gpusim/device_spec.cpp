#include "synergy/gpusim/device_spec.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

namespace synergy::gpusim {

using common::megahertz;

double voltage_curve::voltage_at(megahertz f) const {
  if (f.value <= f_knee.value) return v_min;
  const double span = f_max.value - f_knee.value;
  if (span <= 0.0) return v_max;
  const double t = std::min(1.0, (f.value - f_knee.value) / span);
  return v_min + (v_max - v_min) * t;
}

bool device_spec::supports_core_clock(megahertz f) const {
  return std::binary_search(core_clocks.begin(), core_clocks.end(), f,
                            [](megahertz a, megahertz b) { return a.value < b.value; });
}

std::vector<megahertz> device_spec::supported_memory_clocks() const {
  if (memory_clocks.empty()) return {memory_clock};
  return memory_clocks;
}

bool device_spec::supports_memory_clock(megahertz f) const {
  for (const megahertz m : supported_memory_clocks())
    if (m.value == f.value) return true;
  return false;
}

std::size_t device_spec::nearest_core_clock_index(megahertz f) const {
  if (core_clocks.empty()) throw std::logic_error("device_spec has no core clocks");
  // The first clock at or above f and the one below it bracket f. A NaN
  // compares below nothing, so it lands on the lowest clock.
  const auto above = std::lower_bound(core_clocks.begin(), core_clocks.end(), f.value,
                                      [](megahertz c, double v) { return c.value < v; });
  const auto i = static_cast<std::size_t>(above - core_clocks.begin());
  if (i == 0) return 0;
  if (i == core_clocks.size()) return i - 1;
  return above->value - f.value < f.value - core_clocks[i - 1].value ? i : i - 1;
}

megahertz device_spec::nearest_core_clock(megahertz f) const {
  return core_clocks[nearest_core_clock_index(f)];
}

namespace {

/// n clocks evenly spread over [lo, hi], rounded to whole MHz, endpoints
/// exact. `force` values (e.g. the driver default) replace the nearest
/// generated entry so they appear verbatim in the table.
std::vector<megahertz> spread_clocks(double lo, double hi, std::size_t n,
                                     std::vector<double> force = {}) {
  std::vector<double> vals(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n - 1);
    vals[i] = std::round(lo + (hi - lo) * t);
  }
  vals.front() = lo;
  vals.back() = hi;
  for (const double f : force) {
    std::size_t best = 0;
    double best_dist = std::abs(vals[0] - f);
    for (std::size_t i = 1; i < n; ++i) {
      const double d = std::abs(vals[i] - f);
      if (d < best_dist) {
        best = i;
        best_dist = d;
      }
    }
    vals[best] = f;
  }
  std::vector<megahertz> out;
  out.reserve(n);
  for (const double v : vals) out.emplace_back(v);
  return out;
}

std::size_t index_of(const std::vector<megahertz>& clocks, double f) {
  for (std::size_t i = 0; i < clocks.size(); ++i)
    if (clocks[i].value == f) return i;
  throw std::logic_error("clock not present in table");
}

std::string upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return s;
}

}  // namespace

device_spec make_v100() {
  device_spec spec;
  spec.name = "NVIDIA Tesla V100";
  spec.vendor = vendor_kind::nvidia;
  spec.num_compute_units = 80;
  spec.lanes_per_unit = 64;
  spec.mem_bandwidth_gbs = 900.0;
  spec.idle_power_w = 42.0;
  spec.max_board_power_w = 300.0;
  spec.mem_power_fraction = 0.30;
  spec.vf_curve = {.v_min = 0.55, .v_max = 1.25, .f_knee = megahertz{570.0},
                   .f_max = megahertz{1530.0}};
  spec.memory_clock = megahertz{877.0};
  // Paper Fig. 1: 196 configurations from 135 to 1530 MHz (~7 MHz steps);
  // the driver default application clock 1312 MHz is forced into the table.
  spec.core_clocks = spread_clocks(135.0, 1530.0, 196, {1312.0});
  spec.default_clock_index = index_of(spec.core_clocks, 1312.0);
  return spec;
}

device_spec make_a100() {
  device_spec spec;
  spec.name = "NVIDIA A100";
  spec.vendor = vendor_kind::nvidia;
  spec.num_compute_units = 108;
  spec.lanes_per_unit = 64;
  spec.mem_bandwidth_gbs = 1555.0;
  spec.idle_power_w = 52.0;
  spec.max_board_power_w = 400.0;
  spec.mem_power_fraction = 0.32;
  spec.vf_curve = {.v_min = 0.54, .v_max = 1.22, .f_knee = megahertz{525.0},
                   .f_max = megahertz{1410.0}};
  spec.memory_clock = megahertz{1215.0};
  // Paper Fig. 1: 81 configurations from 210 to 1410 MHz (exact 15 MHz steps).
  spec.core_clocks.clear();
  for (int i = 0; i <= 80; ++i) spec.core_clocks.emplace_back(210.0 + 15.0 * i);
  spec.default_clock_index = spec.core_clocks.size() - 1;  // default == max boost
  return spec;
}

device_spec make_mi100() {
  device_spec spec;
  spec.name = "AMD Instinct MI100";
  spec.vendor = vendor_kind::amd;
  spec.num_compute_units = 120;
  spec.lanes_per_unit = 64;
  spec.mem_bandwidth_gbs = 1228.0;
  spec.idle_power_w = 37.0;
  spec.max_board_power_w = 290.0;
  spec.mem_power_fraction = 0.33;
  spec.vf_curve = {.v_min = 0.56, .v_max = 1.23, .f_knee = megahertz{560.0},
                   .f_max = megahertz{1502.0}};
  spec.memory_clock = megahertz{1200.0};
  // Paper Fig. 1: 16 sclk performance levels from 300 to 1502 MHz. The level
  // spacing follows the published MI100 pp_dpm_sclk table shape: coarse at
  // the bottom, fine near the top.
  const double levels[] = {300,  491,  630,  759,  850,  930,  999,  1060,
                           1120, 1182, 1242, 1302, 1356, 1406, 1455, 1502};
  spec.core_clocks.clear();
  for (const double f : levels) spec.core_clocks.emplace_back(f);
  // AMD auto-DVFS runs compute workloads at the top level by default.
  spec.default_clock_index = spec.core_clocks.size() - 1;
  return spec;
}

device_spec make_titanx() {
  device_spec spec;
  spec.name = "NVIDIA Titan X (Pascal)";
  spec.vendor = vendor_kind::nvidia;
  spec.num_compute_units = 28;  // SMs
  spec.lanes_per_unit = 128;
  spec.mem_bandwidth_gbs = 480.0;
  spec.idle_power_w = 15.0;
  spec.max_board_power_w = 250.0;
  // GDDR5X burns a larger share of board power than HBM, which is what
  // makes its memory-frequency scaling worthwhile (paper Sec. 2.1).
  spec.mem_power_fraction = 0.40;
  spec.vf_curve = {.v_min = 0.60, .v_max = 1.25, .f_knee = megahertz{700.0},
                   .f_max = megahertz{1911.0}};
  spec.memory_clock = megahertz{5005.0};
  // The four selectable memory clocks of the Pascal Titan X.
  spec.memory_clocks = {megahertz{405.0}, megahertz{810.0}, megahertz{4513.0},
                        megahertz{5005.0}};
  spec.core_clocks = spread_clocks(139.0, 1911.0, 140);
  spec.default_clock_index = spec.nearest_core_clock_index(megahertz{1417.0});
  return spec;
}

device_spec make_pvc() {
  device_spec spec;
  spec.name = "Intel Data Center GPU Max 1550";
  spec.vendor = vendor_kind::intel;
  spec.num_compute_units = 128;  // Xe cores
  spec.lanes_per_unit = 128;     // 8 vector engines x 16 lanes
  spec.mem_bandwidth_gbs = 3277.0;
  spec.idle_power_w = 95.0;
  spec.max_board_power_w = 600.0;
  spec.mem_power_fraction = 0.34;
  spec.vf_curve = {.v_min = 0.58, .v_max = 1.20, .f_knee = megahertz{600.0},
                   .f_max = megahertz{1600.0}};
  spec.memory_clock = megahertz{1565.0};
  // Level Zero exposes a dense clock list: 900-1600 MHz in 50 MHz steps.
  spec.core_clocks.clear();
  for (int f = 900; f <= 1600; f += 50) spec.core_clocks.emplace_back(f);
  spec.default_clock_index = spec.core_clocks.size() - 1;
  return spec;
}

device_spec make_device_spec(const std::string& name) {
  const std::string key = upper(name);
  if (key == "V100" || key == "NVIDIA TESLA V100") return make_v100();
  if (key == "A100" || key == "NVIDIA A100") return make_a100();
  if (key == "MI100" || key == "AMD INSTINCT MI100") return make_mi100();
  if (key == "PVC" || key == "MAX1550" || key == "INTEL DATA CENTER GPU MAX 1550")
    return make_pvc();
  if (key == "TITANX" || key == "NVIDIA TITAN X (PASCAL)") return make_titanx();
  throw std::invalid_argument("unknown device: " + name);
}

std::vector<std::string> known_device_names() { return {"V100", "A100", "MI100"}; }

}  // namespace synergy::gpusim

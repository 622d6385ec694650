// Unit and property tests for the GPU simulator substrate: device specs and
// frequency tables (paper Fig. 1), the analytic DVFS model's physical
// invariants, the power trace, and the virtual-clock device runtime.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "synergy/gpusim/device.hpp"
#include "synergy/gpusim/device_spec.hpp"
#include "synergy/gpusim/dvfs_model.hpp"
#include "synergy/gpusim/kernel_profile.hpp"
#include "synergy/gpusim/power_trace.hpp"

namespace gs = synergy::gpusim;
namespace sc = synergy::common;

using sc::frequency_config;
using sc::megahertz;
using sc::seconds;

namespace {

/// Heavily compute-bound synthetic kernel (high arithmetic intensity).
gs::kernel_profile compute_bound_kernel() {
  gs::kernel_profile p;
  p.name = "compute_bound";
  p.features.float_add = 200;
  p.features.float_mul = 200;
  p.features.gl_access = 2;
  p.work_items = 1 << 20;
  return p;
}

/// Streaming memory-bound synthetic kernel (low arithmetic intensity).
gs::kernel_profile memory_bound_kernel() {
  gs::kernel_profile p;
  p.name = "memory_bound";
  p.features.float_add = 1;
  p.features.gl_access = 12;
  p.work_items = 1 << 22;
  return p;
}

}  // namespace

// ----------------------------------------------------------- device spec ----

TEST(DeviceSpec, V100MatchesPaperFigure1) {
  const auto spec = gs::make_v100();
  EXPECT_EQ(spec.vendor, gs::vendor_kind::nvidia);
  EXPECT_EQ(spec.core_clocks.size(), 196u);
  EXPECT_DOUBLE_EQ(spec.min_core_clock().value, 135.0);
  EXPECT_DOUBLE_EQ(spec.max_core_clock().value, 1530.0);
  EXPECT_DOUBLE_EQ(spec.memory_clock.value, 877.0);
  EXPECT_DOUBLE_EQ(spec.default_core_clock().value, 1312.0);
  // Default is *below* max: speedup > 1 must be reachable (paper Sec. 8.2).
  EXPECT_LT(spec.default_core_clock().value, spec.max_core_clock().value);
}

TEST(DeviceSpec, A100MatchesPaperFigure1) {
  const auto spec = gs::make_a100();
  EXPECT_EQ(spec.core_clocks.size(), 81u);
  EXPECT_DOUBLE_EQ(spec.min_core_clock().value, 210.0);
  EXPECT_DOUBLE_EQ(spec.max_core_clock().value, 1410.0);
  EXPECT_DOUBLE_EQ(spec.memory_clock.value, 1215.0);
  // Exact 15 MHz steps.
  for (std::size_t i = 1; i < spec.core_clocks.size(); ++i)
    EXPECT_DOUBLE_EQ(spec.core_clocks[i].value - spec.core_clocks[i - 1].value, 15.0);
}

TEST(DeviceSpec, MI100MatchesPaperFigure1) {
  const auto spec = gs::make_mi100();
  EXPECT_EQ(spec.vendor, gs::vendor_kind::amd);
  EXPECT_EQ(spec.core_clocks.size(), 16u);
  EXPECT_DOUBLE_EQ(spec.min_core_clock().value, 300.0);
  EXPECT_DOUBLE_EQ(spec.max_core_clock().value, 1502.0);
  EXPECT_DOUBLE_EQ(spec.memory_clock.value, 1200.0);
  // Auto-DVFS default is the top level (paper Sec. 2.1 / Fig. 8).
  EXPECT_DOUBLE_EQ(spec.default_core_clock().value, spec.max_core_clock().value);
}

/// Every spec make_device_spec builds; the other names it accepts are aliases.
constexpr const char* shipped_specs[] = {"V100", "A100", "MI100", "PVC", "TITANX"};

TEST(DeviceSpec, ClockTablesAreStrictlyAscending) {
  // nearest_core_clock is a binary search over the table, so it needs this.
  for (const char* name : shipped_specs) {
    const auto spec = gs::make_device_spec(name);
    for (std::size_t i = 1; i < spec.core_clocks.size(); ++i)
      EXPECT_LT(spec.core_clocks[i - 1].value, spec.core_clocks[i].value) << name;
  }
}

TEST(DeviceSpec, SupportsAndNearestClock) {
  const auto v100 = gs::make_v100();
  EXPECT_TRUE(v100.supports_core_clock(megahertz{1312.0}));
  EXPECT_FALSE(v100.supports_core_clock(megahertz{1313.0}));

  // A linear-scan reference: the first clock at the smallest distance wins,
  // so a tie goes to the lower clock.
  const auto scanned = [](const gs::device_spec& spec, double f) {
    megahertz best = spec.core_clocks.front();
    for (const megahertz c : spec.core_clocks)
      if (std::abs(c.value - f) < std::abs(best.value - f)) best = c;
    return best;
  };
  for (const char* name : shipped_specs) {
    const auto spec = gs::make_device_spec(name);
    const auto& clocks = spec.core_clocks;
    std::vector<double> probes = {0.0, 1.0, 10.0 * spec.max_core_clock().value,
                                  -std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::quiet_NaN()};
    for (std::size_t i = 0; i < clocks.size(); ++i) {
      probes.push_back(clocks[i].value);
      if (i == 0) continue;
      const double mid = 0.5 * (clocks[i - 1].value + clocks[i].value);
      probes.insert(probes.end(), {mid, mid - 0.01, mid + 0.01});
    }
    for (const double f : probes) {
      const std::size_t i = spec.nearest_core_clock_index(megahertz{f});
      ASSERT_LT(i, clocks.size()) << name << " at " << f;
      EXPECT_EQ(clocks[i].value, scanned(spec, f).value) << name << " at " << f;
      EXPECT_EQ(spec.nearest_core_clock(megahertz{f}).value, clocks[i].value) << name;
    }
    // Where the two differ: every distance to +inf is inf, so the scan kept
    // its first clock; the search snaps to the top one.
    EXPECT_EQ(spec.nearest_core_clock(megahertz{std::numeric_limits<double>::infinity()}).value,
              spec.max_core_clock().value)
        << name;
  }
}

TEST(DeviceSpec, TitanXExposesFourMemoryClocks) {
  // Paper Sec. 2.1: the Titan X selects one of four memory frequencies.
  const auto spec = gs::make_titanx();
  const auto mem = spec.supported_memory_clocks();
  ASSERT_EQ(mem.size(), 4u);
  EXPECT_DOUBLE_EQ(mem.front().value, 405.0);
  EXPECT_DOUBLE_EQ(mem.back().value, 5005.0);
  EXPECT_TRUE(spec.supports_memory_clock(megahertz{810.0}));
  EXPECT_FALSE(spec.supports_memory_clock(megahertz{1000.0}));
  // HBM devices expose exactly their nominal clock.
  const auto v100 = gs::make_v100();
  EXPECT_EQ(v100.supported_memory_clocks().size(), 1u);
  EXPECT_TRUE(v100.supports_memory_clock(megahertz{877.0}));
}

TEST(Device, SetApplicationClocksValidatesMemory) {
  gs::device dev{gs::make_titanx()};
  EXPECT_TRUE(dev.set_application_clocks({megahertz{810.0},
                                          dev.spec().core_clocks[50]}).ok());
  EXPECT_DOUBLE_EQ(dev.current_config().memory.value, 810.0);
  const auto bad = dev.set_application_clocks({megahertz{1234.0},
                                               dev.spec().core_clocks[50]});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.err().code, sc::errc::not_supported);
  dev.reset_core_clock();
  EXPECT_DOUBLE_EQ(dev.current_config().memory.value, 5005.0);
}

TEST(DvfsModel, LowerMemoryClockCutsBandwidthAndMemoryPower) {
  const auto spec = gs::make_titanx();
  gs::dvfs_model model;
  gs::kernel_profile streaming;
  streaming.features.float_add = 1;
  streaming.features.gl_access = 16;
  streaming.work_items = 1 << 22;
  const auto full = model.evaluate(spec, streaming,
                                   {megahertz{5005.0}, spec.default_core_clock()});
  const auto half = model.evaluate(spec, streaming,
                                   {megahertz{810.0}, spec.default_core_clock()});
  // ~6x less bandwidth -> much slower...
  EXPECT_GT(half.time.value, full.time.value * 4.0);
  // ...at lower power (memory domain scaled down).
  EXPECT_LT(half.avg_power.value, full.avg_power.value);
}

TEST(DeviceSpec, FactoryByNameAndUnknown) {
  EXPECT_EQ(gs::make_device_spec("v100").name, "NVIDIA Tesla V100");
  EXPECT_EQ(gs::make_device_spec("MI100").vendor, gs::vendor_kind::amd);
  EXPECT_THROW((void)gs::make_device_spec("H100"), std::invalid_argument);
}

TEST(DeviceSpec, VoltageCurveShape) {
  const auto spec = gs::make_v100();
  const auto& vf = spec.vf_curve;
  // Flat below the knee.
  EXPECT_DOUBLE_EQ(vf.voltage_at(megahertz{135.0}), vf.v_min);
  EXPECT_DOUBLE_EQ(vf.voltage_at(vf.f_knee), vf.v_min);
  // Rises monotonically to v_max.
  EXPECT_NEAR(vf.voltage_at(vf.f_max), vf.v_max, 1e-12);
  double prev = 0.0;
  for (double f = 135.0; f <= 1530.0; f += 50.0) {
    const double v = vf.voltage_at(megahertz{f});
    EXPECT_GE(v, prev);
    prev = v;
  }
}

// ------------------------------------------------------- static features ----

TEST(StaticFeatures, ArrayRoundTrip) {
  gs::static_features k;
  k.int_add = 1; k.int_mul = 2; k.int_div = 3; k.int_bw = 4; k.float_add = 5;
  k.float_mul = 6; k.float_div = 7; k.sf = 8; k.gl_access = 9; k.loc_access = 10;
  const auto a = k.as_array();
  EXPECT_EQ(gs::static_features::from_array(a), k);
  EXPECT_DOUBLE_EQ(k.total_compute_ops(), 36.0);  // all but memory accesses
}

TEST(StaticFeatures, FeatureNamesMatchTable1) {
  EXPECT_STREQ(gs::static_features::feature_name(0), "int_add");
  EXPECT_STREQ(gs::static_features::feature_name(7), "sf");
  EXPECT_STREQ(gs::static_features::feature_name(9), "loc_access");
  EXPECT_THROW((void)gs::static_features::feature_name(10), std::out_of_range);
}

TEST(KernelProfile, DerivedQuantities) {
  const auto p = memory_bound_kernel();
  EXPECT_GT(p.dram_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(p.dram_bytes(), 12.0 * 4.0 * p.work_items);
  EXPECT_LT(p.arithmetic_intensity(), 0.1);
  EXPECT_GT(compute_bound_kernel().arithmetic_intensity(), 10.0);
}

TEST(KernelProfile, CacheHitsReduceDramTraffic) {
  auto p = memory_bound_kernel();
  const double cold = p.dram_bytes();
  p.cache_hit_rate = 0.5;
  EXPECT_DOUBLE_EQ(p.dram_bytes(), cold * 0.5);
}

// -------------------------------------------------------------- dvfs model ----

class DvfsModelTest : public ::testing::Test {
 protected:
  gs::device_spec spec = gs::make_v100();
  gs::dvfs_model model;
  frequency_config cfg(double core) const { return {spec.memory_clock, megahertz{core}}; }
};

TEST_F(DvfsModelTest, ComputeBoundTimeScalesInverselyWithCoreClock) {
  const auto k = compute_bound_kernel();
  const auto slow = model.evaluate(spec, k, cfg(300.0));
  const auto fast = model.evaluate(spec, k, cfg(1500.0));
  // Time ratio should be close to the inverse frequency ratio (5x).
  EXPECT_NEAR(slow.time.value / fast.time.value, 5.0, 0.5);
}

TEST_F(DvfsModelTest, MemoryBoundTimeIsFlatInCoreClock) {
  const auto k = memory_bound_kernel();
  const auto slow = model.evaluate(spec, k, cfg(800.0));
  const auto fast = model.evaluate(spec, k, cfg(1530.0));
  EXPECT_NEAR(slow.time.value / fast.time.value, 1.0, 0.06);
}

TEST_F(DvfsModelTest, MemoryBoundEnergyDropsAtLowerCoreClock) {
  const auto k = memory_bound_kernel();
  const auto low = model.evaluate(spec, k, cfg(900.0));
  const auto def = model.evaluate(spec, k, cfg(1312.0));
  EXPECT_LT(low.energy.value, def.energy.value);
}

TEST_F(DvfsModelTest, EnergyHasInteriorMinimumForComputeBound) {
  // At very low frequency static power dominates (energy rises); at very high
  // frequency V^2 f dominates (energy rises): minimum must be interior.
  const auto k = compute_bound_kernel();
  const double e_min_clock = model.evaluate(spec, k, cfg(spec.min_core_clock().value)).energy.value;
  const double e_max_clock = model.evaluate(spec, k, cfg(spec.max_core_clock().value)).energy.value;
  double best_e = 1e300;
  double best_f = 0.0;
  for (const auto f : spec.core_clocks) {
    const double e = model.evaluate(spec, k, {spec.memory_clock, f}).energy.value;
    if (e < best_e) {
      best_e = e;
      best_f = f.value;
    }
  }
  EXPECT_LT(best_e, e_min_clock);
  EXPECT_LT(best_e, e_max_clock);
  EXPECT_GT(best_f, spec.min_core_clock().value);
  EXPECT_LT(best_f, spec.max_core_clock().value);
}

TEST_F(DvfsModelTest, PowerNeverExceedsTdpNorDropsBelowIdle) {
  for (const auto& kernel : {compute_bound_kernel(), memory_bound_kernel()}) {
    for (const auto f : spec.core_clocks) {
      const auto c = model.evaluate(spec, kernel, {spec.memory_clock, f});
      EXPECT_LE(c.avg_power.value, spec.max_board_power_w * 1.0001);
      EXPECT_GE(c.avg_power.value, spec.idle_power_w * 0.9999);
    }
  }
}

TEST_F(DvfsModelTest, TimeIsMonotonicallyNonincreasingInCoreClock) {
  for (const auto& kernel : {compute_bound_kernel(), memory_bound_kernel()}) {
    double prev = 1e300;
    for (const auto f : spec.core_clocks) {
      const double t = model.evaluate(spec, kernel, {spec.memory_clock, f}).time.value;
      EXPECT_LE(t, prev * 1.0000001);
      prev = t;
    }
  }
}

TEST_F(DvfsModelTest, UtilizationsAreConsistent) {
  const auto c = model.evaluate(spec, compute_bound_kernel(), cfg(1312.0));
  EXPECT_GT(c.compute_utilization, 0.9);
  EXPECT_LT(c.memory_utilization, 0.2);
  const auto m = model.evaluate(spec, memory_bound_kernel(), cfg(1312.0));
  EXPECT_GT(m.memory_utilization, 0.9);
}

TEST_F(DvfsModelTest, LaunchOverheadBoundsTinyKernels) {
  gs::kernel_profile tiny;
  tiny.name = "tiny";
  tiny.features.float_add = 1;
  tiny.work_items = 1;
  const auto c = model.evaluate(spec, tiny, cfg(1312.0));
  EXPECT_GE(c.time.value, spec.launch_overhead.value);
}

TEST_F(DvfsModelTest, EnergyEqualsPowerTimesTime) {
  const auto c = model.evaluate(spec, compute_bound_kernel(), cfg(1000.0));
  EXPECT_NEAR(c.energy.value, c.avg_power.value * c.time.value, 1e-9);
}

TEST_F(DvfsModelTest, InvalidClockThrows) {
  EXPECT_THROW((void)model.compute_time(spec, compute_bound_kernel(), megahertz{0.0}),
               std::invalid_argument);
}

TEST_F(DvfsModelTest, IdlePowerGrowsWithClock) {
  const auto low = model.idle_power(spec, cfg(135.0));
  const auto high = model.idle_power(spec, cfg(1530.0));
  EXPECT_GT(high.value, low.value);
  EXPECT_GE(low.value, spec.idle_power_w);
}

TEST_F(DvfsModelTest, OpCostsWeighting) {
  gs::kernel_profile divs;
  divs.features.float_div = 10;
  divs.work_items = 1 << 20;
  gs::kernel_profile adds;
  adds.features.float_add = 10;
  adds.work_items = 1 << 20;
  EXPECT_GT(model.weighted_compute_cycles(divs), model.weighted_compute_cycles(adds) * 5);
}

// -------------------------------------------------------------- power trace ----

TEST(PowerTrace, AppendAndQuery) {
  gs::power_trace tr;
  tr.append({seconds{0.0}, seconds{1.0}, sc::watts{100.0}, true});
  tr.append({seconds{1.0}, seconds{1.0}, sc::watts{50.0}, false});
  EXPECT_DOUBLE_EQ(tr.power_at(seconds{0.5}).value, 100.0);
  EXPECT_DOUBLE_EQ(tr.power_at(seconds{1.5}).value, 50.0);
  EXPECT_DOUBLE_EQ(tr.power_at(seconds{99.0}).value, 50.0);
  EXPECT_DOUBLE_EQ(tr.end_time().value, 2.0);
}

TEST(PowerTrace, EnergyIntegral) {
  gs::power_trace tr;
  tr.append({seconds{0.0}, seconds{2.0}, sc::watts{100.0}, true});
  tr.append({seconds{2.0}, seconds{2.0}, sc::watts{50.0}, false});
  EXPECT_DOUBLE_EQ(tr.energy_between(seconds{0.0}, seconds{4.0}).value, 300.0);
  EXPECT_DOUBLE_EQ(tr.energy_between(seconds{1.0}, seconds{3.0}).value, 150.0);
  EXPECT_DOUBLE_EQ(tr.energy_between(seconds{3.0}, seconds{3.0}).value, 0.0);
}

TEST(PowerTrace, WindowedAverage) {
  gs::power_trace tr;
  tr.append({seconds{0.0}, seconds{1.0}, sc::watts{100.0}, true});
  tr.append({seconds{1.0}, seconds{1.0}, sc::watts{200.0}, true});
  EXPECT_DOUBLE_EQ(tr.windowed_average(seconds{2.0}, seconds{2.0}).value, 150.0);
  EXPECT_DOUBLE_EQ(tr.windowed_average(seconds{2.0}, seconds{1.0}).value, 200.0);
}

TEST(PowerTrace, RejectsGapsAndNegativeDurations) {
  gs::power_trace tr;
  tr.append({seconds{0.0}, seconds{1.0}, sc::watts{10.0}, true});
  EXPECT_THROW(tr.append({seconds{5.0}, seconds{1.0}, sc::watts{10.0}, true}),
               std::invalid_argument);
  EXPECT_THROW(tr.append({seconds{1.0}, seconds{-1.0}, sc::watts{10.0}, true}),
               std::invalid_argument);
}

TEST(PowerTrace, ZeroDurationSegmentsAreIgnored) {
  gs::power_trace tr;
  tr.append({seconds{0.0}, seconds{0.0}, sc::watts{10.0}, true});
  EXPECT_TRUE(tr.empty());
}

TEST(PowerTrace, CsvExport) {
  gs::power_trace tr;
  tr.append({seconds{0.0}, seconds{1.0}, sc::watts{100.0}, true});
  tr.append({seconds{1.0}, seconds{0.5}, sc::watts{42.0}, false});
  std::ostringstream oss;
  tr.write_csv(oss);
  EXPECT_EQ(oss.str(), "start_s,duration_s,power_w,busy\n0,1,100,1\n1,0.5,42,0\n");
}

// ------------------------------------------------------------------ device ----

TEST(Device, ExecutionAdvancesVirtualClockAndEnergy) {
  gs::device dev{gs::make_v100()};
  EXPECT_DOUBLE_EQ(dev.now().value, 0.0);
  const auto rec = dev.execute(compute_bound_kernel());
  EXPECT_DOUBLE_EQ(dev.now().value, rec.cost.time.value);
  EXPECT_DOUBLE_EQ(dev.total_energy().value, rec.cost.energy.value);
  EXPECT_EQ(dev.kernels_executed(), 1u);
}

TEST(Device, SetCoreClockValidation) {
  gs::device dev{gs::make_v100()};
  EXPECT_TRUE(dev.set_core_clock(megahertz{1530.0}).ok());
  EXPECT_DOUBLE_EQ(dev.current_config().core.value, 1530.0);
  const auto bad = dev.set_core_clock(megahertz{1531.0});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.err().code, sc::errc::not_supported);
  dev.reset_core_clock();
  EXPECT_DOUBLE_EQ(dev.current_config().core.value, 1312.0);
}

TEST(Device, ClockBoundsRejectOutsideSettings) {
  gs::device dev{gs::make_v100()};
  ASSERT_TRUE(dev.set_clock_bounds(megahertz{1000.0}, megahertz{1400.0}).ok());
  const auto low = dev.set_core_clock(megahertz{135.0});
  EXPECT_FALSE(low.ok());
  EXPECT_EQ(low.err().code, sc::errc::no_permission);
  dev.clear_clock_bounds();
  EXPECT_TRUE(dev.set_core_clock(megahertz{135.0}).ok());
}

TEST(Device, ClockBoundsClampCurrentConfig) {
  gs::device dev{gs::make_v100()};
  ASSERT_TRUE(dev.set_core_clock(megahertz{135.0}).ok());
  ASSERT_TRUE(dev.set_clock_bounds(megahertz{1000.0}, megahertz{1530.0}).ok());
  EXPECT_GE(dev.current_config().core.value, 1000.0);
}

TEST(Device, InvertedBoundsRejected) {
  gs::device dev{gs::make_v100()};
  EXPECT_FALSE(dev.set_clock_bounds(megahertz{1400.0}, megahertz{1000.0}).ok());
}

TEST(Device, IdleAdvancesTimeAtIdlePower) {
  gs::device dev{gs::make_v100()};
  dev.advance_idle(seconds{1.0});
  EXPECT_DOUBLE_EQ(dev.now().value, 1.0);
  EXPECT_GE(dev.total_energy().value, dev.spec().idle_power_w * 0.99);
  // Negative/zero idle time is a no-op.
  dev.advance_idle(seconds{0.0});
  dev.advance_idle(seconds{-5.0});
  EXPECT_DOUBLE_EQ(dev.now().value, 1.0);
}

TEST(Device, FrequencyAffectsRecordedExecution) {
  gs::device dev{gs::make_v100()};
  const auto k = compute_bound_kernel();
  const megahertz low_clock = dev.spec().core_clocks[38];  // ~407 MHz
  ASSERT_TRUE(dev.set_core_clock(megahertz{1530.0}).ok());
  const auto fast = dev.execute(k);
  ASSERT_TRUE(dev.set_core_clock(low_clock).ok());
  const auto slow = dev.execute(k);
  EXPECT_GT(slow.cost.time.value, fast.cost.time.value * 2.0);
  EXPECT_DOUBLE_EQ(fast.config.core.value, 1530.0);
  EXPECT_DOUBLE_EQ(slow.config.core.value, low_clock.value);
}

TEST(Device, NoiseIsDeterministicPerSeed) {
  gs::noise_config noisy{.time_sigma = 0.05, .power_sigma = 0.05, .seed = 42};
  gs::device a{gs::make_v100(), noisy};
  gs::device b{gs::make_v100(), noisy};
  const auto k = compute_bound_kernel();
  const auto ra = a.execute(k);
  const auto rb = b.execute(k);
  EXPECT_DOUBLE_EQ(ra.cost.time.value, rb.cost.time.value);
  EXPECT_DOUBLE_EQ(ra.cost.energy.value, rb.cost.energy.value);
}

TEST(Device, NoisePerturbsAroundTruth) {
  gs::noise_config noisy{.time_sigma = 0.02, .power_sigma = 0.02, .seed = 7};
  gs::device dev{gs::make_v100(), noisy};
  gs::dvfs_model model;
  const auto k = compute_bound_kernel();
  const auto truth = model.evaluate(dev.spec(), k, dev.current_config());
  double sum = 0.0;
  const int n = 200;
  for (int i = 0; i < n; ++i) sum += dev.execute(k).cost.time.value;
  EXPECT_NEAR(sum / n / truth.time.value, 1.0, 0.02);
}

TEST(Device, TraceRecordsBusyAndIdleSegments) {
  gs::device dev{gs::make_v100()};
  dev.execute(compute_bound_kernel());
  dev.advance_idle(seconds{0.5});
  dev.execute(memory_bound_kernel());
  const auto trace = dev.trace_copy();
  ASSERT_EQ(trace.segments().size(), 3u);
  EXPECT_TRUE(trace.segments()[0].busy);
  EXPECT_FALSE(trace.segments()[1].busy);
  EXPECT_TRUE(trace.segments()[2].busy);
  EXPECT_NEAR(trace.end_time().value, dev.now().value, 1e-12);
}

TEST(Device, EnergyBetweenMatchesTotalEnergy) {
  gs::device dev{gs::make_v100()};
  dev.execute(compute_bound_kernel());
  dev.advance_idle(seconds{0.1});
  dev.execute(compute_bound_kernel());
  const auto total = dev.total_energy();
  const auto integral = dev.energy_between(seconds{0.0}, dev.now());
  EXPECT_NEAR(total.value, integral.value, 1e-9 * std::max(1.0, total.value));
}

// Tests for the SLURM-like scheduler: node/GRES model, the nvgpufreq
// plugin's prologue check chain and epilogue cleanup (paper Sec. 7.2),
// privilege lifecycles across job outcomes, energy accounting, and the
// cluster power-capping manager.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <vector>

#include "simsycl/kernel_info.hpp"
#include "synergy/sched/controller.hpp"
#include "synergy/sched/power_manager.hpp"

namespace ss = synergy::sched;
namespace sv = synergy::vendor;
namespace gs = synergy::gpusim;

using synergy::common::megahertz;

namespace {

ss::node_config capable_node(const std::string& name = "gn01") {
  ss::node_config cfg;
  cfg.name = name;
  cfg.gpus = {"V100", "V100"};
  cfg.gres = {ss::nvgpufreq_plugin::gres_tag};
  return cfg;
}

ss::job_request freq_job() {
  ss::job_request req;
  req.name = "freq_job";
  req.exclusive = true;
  req.gres = {ss::nvgpufreq_plugin::gres_tag};
  return req;
}

simsycl::kernel_info work_info() {
  simsycl::kernel_info info;
  info.name = "payload";
  info.features.float_add = 64;
  info.features.gl_access = 4;
  info.work_multiplier = 1024.0;
  return info;
}

void run_some_work(synergy::queue& q) {
  q.submit([&](simsycl::handler& h) {
    h.parallel_for(simsycl::range<1>{4096}, work_info(), [](simsycl::id<1>) {});
  });
}

}  // namespace

// -------------------------------------------------------------------- node ----

TEST(Node, ConstructionAndGres) {
  ss::node n{capable_node()};
  EXPECT_EQ(n.name(), "gn01");
  EXPECT_EQ(n.devices().size(), 2u);
  EXPECT_TRUE(n.has_gres("nvgpufreq"));
  EXPECT_FALSE(n.has_gres("mps"));
  EXPECT_DOUBLE_EQ(n.gpu_energy(), 0.0);
  EXPECT_EQ(n.running_jobs(), 0);
}

// ------------------------------------------------------ plugin check chain ----

struct prologue_case {
  const char* label;
  bool controller_reachable;
  bool node_tagged;
  bool nvml_available;
  bool job_tagged;
  bool exclusive;
  bool expect_granted;
  const char* failing_check;  // "" when granted
};

// gtest puts the printed parameter into the test names ctest lists. Without
// a printer it dumps the struct's bytes -- the label's address and padding
// -- which differ between builds and even between runs.
void PrintTo(const prologue_case& c, std::ostream* os) { *os << c.label; }

class PrologueChecks : public ::testing::TestWithParam<prologue_case> {};

INSTANTIATE_TEST_SUITE_P(
    CheckMatrix, PrologueChecks,
    ::testing::Values(
        prologue_case{"all_pass", true, true, true, true, true, true, ""},
        prologue_case{"controller_down", false, true, true, true, true, false,
                      "slurmctld node info available"},
        prologue_case{"node_untagged", true, false, true, true, true, false,
                      "node tagged with nvgpufreq GRES"},
        prologue_case{"nvml_missing", true, true, false, true, true, false,
                      "NVML shared object dlopen-able"},
        prologue_case{"job_untagged", true, true, true, false, true, false,
                      "job tagged with nvgpufreq GRES"},
        prologue_case{"job_shared", true, true, true, true, false, false,
                      "job runs exclusively on the node"}),
    [](const auto& info) { return info.param.label; });

TEST_P(PrologueChecks, TerminatesAtFirstFailingCheck) {
  const auto& param = GetParam();
  auto cfg = capable_node();
  if (!param.node_tagged) cfg.gres.clear();
  cfg.nvml_available = param.nvml_available;
  ss::node n{cfg};

  ss::job_request req = freq_job();
  if (!param.job_tagged) req.gres.clear();
  req.exclusive = param.exclusive;

  ss::job_context ctx;
  ctx.request = &req;
  ctx.nodes = {&n};
  ctx.user = sv::user_context::user(req.uid);

  ss::nvgpufreq_plugin plugin{param.controller_reachable};
  plugin.prologue(ctx);

  EXPECT_EQ(plugin.granted(), param.expect_granted);
  ASSERT_FALSE(plugin.last_trace().empty());
  if (param.expect_granted) {
    for (const auto& d : plugin.last_trace()) EXPECT_TRUE(d.passed) << d.check;
    EXPECT_EQ(plugin.last_trace().size(), 5u);
  } else {
    const auto& last = plugin.last_trace().back();
    EXPECT_FALSE(last.passed);
    EXPECT_EQ(last.check, param.failing_check);
  }

  // Privilege state matches the grant decision.
  const auto binding = n.ctx()->bind(n.devices()[0]);
  const bool restricted =
      binding.library->api_restricted(binding.index, sv::restricted_api::set_application_clocks)
          .value();
  EXPECT_EQ(restricted, !param.expect_granted);
}

// ------------------------------------------------- controller + lifecycle ----

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : ctl({capable_node("gn01"), capable_node("gn02")}) {
    plugin = std::make_shared<ss::nvgpufreq_plugin>();
    ctl.register_plugin(plugin);
  }
  ss::controller ctl;
  std::shared_ptr<ss::nvgpufreq_plugin> plugin;
};

TEST_F(SchedulerTest, GrantedJobCanScaleClocksAndEpilogueRestores) {
  megahertz seen_clock{0.0};
  megahertz requested{0.0};
  auto req = freq_job();
  req.payload = [&](ss::job_context& job) {
    auto q = job.make_queue(0, 0);
    requested = q.get_device().spec().core_clocks[110];  // mid-table clock
    q.set_fixed_frequency({megahertz{877}, requested});
    run_some_work(q);
    EXPECT_EQ(q.frequency_change_failures(), 0u);
    seen_clock = q.current_clocks().core;
  };
  const int id = ctl.submit(std::move(req));
  ctl.run_pending();

  EXPECT_EQ(ctl.job(id).state, ss::job_state::completed);
  EXPECT_DOUBLE_EQ(seen_clock.value, requested.value);
  // Epilogue restored the default clocks and the restriction.
  const auto& n = ctl.node_at(0);
  EXPECT_DOUBLE_EQ(n.devices()[0].board()->current_config().core.value, 1312.0);
  const auto binding = n.ctx()->bind(n.devices()[0]);
  EXPECT_TRUE(binding.library
                  ->api_restricted(binding.index, sv::restricted_api::set_application_clocks)
                  .value());
}

TEST_F(SchedulerTest, UngrantedJobCannotScaleClocks) {
  std::size_t failures = 0;
  ss::job_request req;  // no GRES, not exclusive
  req.payload = [&](ss::job_context& job) {
    auto q = job.make_queue(0, 0);
    q.set_fixed_frequency({megahertz{877}, megahertz{945}});
    run_some_work(q);
    failures = q.frequency_change_failures();
  };
  const int id = ctl.submit(std::move(req));
  ctl.run_pending();
  EXPECT_EQ(ctl.job(id).state, ss::job_state::completed);
  EXPECT_EQ(failures, 1u);  // vendor library refused the change
}

TEST_F(SchedulerTest, EpilogueRunsWhenPayloadThrows) {
  auto req = freq_job();
  req.payload = [&](ss::job_context& job) {
    auto q = job.make_queue(0, 0);
    q.set_fixed_frequency({megahertz{877}, megahertz{550 - 550 % 5}});
    run_some_work(q);
    throw std::runtime_error("payload crashed");
  };
  const int id = ctl.submit(std::move(req));
  ctl.run_pending();

  EXPECT_EQ(ctl.job(id).state, ss::job_state::failed);
  EXPECT_NE(ctl.job(id).failure_reason.find("crashed"), std::string::npos);
  // The next user still finds default clocks + restriction (Sec. 7.1's
  // "leave the node in a consistent performance state").
  const auto& n = ctl.node_at(0);
  EXPECT_DOUBLE_EQ(n.devices()[0].board()->current_config().core.value, 1312.0);
  const auto binding = n.ctx()->bind(n.devices()[0]);
  EXPECT_TRUE(binding.library
                  ->api_restricted(binding.index, sv::restricted_api::set_application_clocks)
                  .value());
}

TEST_F(SchedulerTest, EnergyAccountingPerJob) {
  auto req = freq_job();
  req.payload = [&](ss::job_context& job) {
    auto q = job.make_queue(0, 0);
    for (int i = 0; i < 4; ++i) run_some_work(q);
  };
  const int id = ctl.submit(std::move(req));
  ctl.run_pending();
  EXPECT_GT(ctl.job(id).gpu_energy_j, 0.0);
  EXPECT_NEAR(ctl.accounted_energy(), ctl.job(id).gpu_energy_j, 1e-9);
}

TEST_F(SchedulerTest, FifoOrderAndMultipleJobs) {
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    auto req = freq_job();
    req.payload = [&, i](ss::job_context&) { order.push_back(i); };
    ctl.submit(std::move(req));
  }
  ctl.run_pending();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(ctl.job_ids().size(), 3u);
}

TEST_F(SchedulerTest, CancelPendingJob) {
  auto req = freq_job();
  bool ran = false;
  req.payload = [&](ss::job_context&) { ran = true; };
  const int id = ctl.submit(std::move(req));
  EXPECT_TRUE(ctl.cancel(id));
  ctl.run_pending();
  EXPECT_FALSE(ran);
  EXPECT_EQ(ctl.job(id).state, ss::job_state::cancelled);
  EXPECT_FALSE(ctl.cancel(id));  // already cancelled
  EXPECT_THROW((void)ctl.job(999), std::out_of_range);
}

TEST_F(SchedulerTest, AllocationFailureFailsJob) {
  auto req = freq_job();
  req.n_nodes = 10;  // only 2 nodes exist
  req.payload = [](ss::job_context&) {};
  const int id = ctl.submit(std::move(req));
  ctl.run_pending();
  EXPECT_EQ(ctl.job(id).state, ss::job_state::failed);
  EXPECT_NE(ctl.job(id).failure_reason.find("allocation"), std::string::npos);
}

TEST_F(SchedulerTest, MultiNodeJobSeesAllNodes) {
  auto req = freq_job();
  req.n_nodes = 2;
  std::size_t seen_nodes = 0;
  req.payload = [&](ss::job_context& job) { seen_nodes = job.nodes.size(); };
  const int id = ctl.submit(std::move(req));
  ctl.run_pending();
  EXPECT_EQ(seen_nodes, 2u);
  EXPECT_EQ(ctl.job(id).node_names.size(), 2u);
}

TEST_F(SchedulerTest, PowerDownIdleNodes) {
  EXPECT_EQ(ctl.power_down_idle_nodes(), 2u);
  EXPECT_TRUE(ctl.node_at(0).powered_down());
  EXPECT_EQ(ctl.power_down_idle_nodes(), 0u);  // already down
  // Allocation powers nodes back up.
  auto req = freq_job();
  req.payload = [](ss::job_context&) {};
  ctl.submit(std::move(req));
  ctl.run_pending();
  EXPECT_FALSE(ctl.node_at(0).powered_down());
}

// ----------------------------------------------- cross-vendor gpufreq plugin ----

class GpufreqPluginTest : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(Vendors, GpufreqPluginTest,
                         ::testing::Values("V100", "MI100", "PVC"),
                         [](const auto& info) { return std::string(info.param); });

TEST_P(GpufreqPluginTest, GrantsAndRevokesInTheBackendIdiom) {
  // The paper's Sec. 3.2 claim: the plugin extends to other vendors. The
  // generalised plugin must let a regular user scale clocks on NVIDIA
  // (NVML restriction), AMD (sysfs writability), and Intel (Sysman) nodes.
  ss::node_config cfg;
  cfg.name = "xnode";
  cfg.gpus = {GetParam()};
  cfg.gres = {"gpufreq"};
  ss::controller ctl{{cfg}};
  ctl.register_plugin(std::make_shared<ss::gpufreq_plugin>("gpufreq"));

  std::size_t failures = 99;
  megahertz chosen{0.0};
  ss::job_request req;
  req.name = "xvendor";
  req.exclusive = true;
  req.gres = {"gpufreq"};
  req.payload = [&](ss::job_context& job) {
    auto q = job.make_queue(0, 0);
    const auto& spec = q.get_device().spec();
    chosen = spec.core_clocks[spec.core_clocks.size() / 2];
    q.set_fixed_frequency({spec.memory_clock, chosen});
    run_some_work(q);
    failures = q.frequency_change_failures();
  };
  const int id = ctl.submit(std::move(req));
  ctl.run_pending();

  EXPECT_EQ(ctl.job(id).state, ss::job_state::completed);
  EXPECT_EQ(failures, 0u) << GetParam();

  // After the epilogue: default clocks and privileges revoked.
  auto& dev = ctl.node_at(0).devices()[0];
  EXPECT_DOUBLE_EQ(dev.board()->current_config().core.value,
                   dev.spec().default_core_clock().value);
  const auto binding = ctl.node_at(0).ctx()->bind(dev);
  EXPECT_TRUE(binding.library
                  ->api_restricted(binding.index, sv::restricted_api::set_application_clocks)
                  .value())
      << GetParam();
  // A fresh unprivileged attempt is refused again.
  EXPECT_FALSE(binding.library
                   ->set_application_clocks(sv::user_context::user(), binding.index,
                                            {dev.spec().memory_clock, chosen})
                   .ok())
      << GetParam();
}

TEST(GpufreqPluginChecks, DeclinesUntaggedJobs) {
  ss::node_config cfg = capable_node();
  cfg.gres = {"gpufreq"};
  ss::node n{cfg};
  ss::job_request req;
  req.exclusive = true;  // but no GRES
  ss::job_context ctx;
  ctx.request = &req;
  ctx.nodes = {&n};
  ss::gpufreq_plugin plugin{"gpufreq"};
  plugin.prologue(ctx);
  EXPECT_FALSE(plugin.granted());
  EXPECT_EQ(plugin.last_trace().back().check, "job tagged with gpufreq GRES");
}

// -------------------------------------------------------- accounting report ----

TEST_F(SchedulerTest, ReportListsJobsAndTotals) {
  auto req = freq_job();
  req.name = "reported_job";
  req.payload = [&](ss::job_context& job) {
    auto q = job.make_queue(0, 0);
    run_some_work(q);
  };
  ctl.submit(std::move(req));
  ctl.run_pending();
  std::ostringstream oss;
  ctl.report(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("reported_job"), std::string::npos);
  EXPECT_NE(out.find("COMPLETED"), std::string::npos);
  EXPECT_NE(out.find("total accounted GPU energy"), std::string::npos);
}

// ----------------------------------------------------------- power manager ----

TEST(PowerManager, WorstCasePowerIsMonotoneInClock) {
  const auto spec = gs::make_v100();
  double prev = 0.0;
  for (const auto f : spec.core_clocks) {
    const double p = ss::worst_case_power(spec, f);
    EXPECT_GE(p, prev);
    prev = p;
  }
  EXPECT_NEAR(ss::worst_case_power(spec, spec.max_core_clock()), spec.max_board_power_w, 1.0);
}

TEST(PowerManager, MaxClockUnderCapRespectsBudget) {
  const auto spec = gs::make_v100();
  const auto clock = ss::max_core_clock_under_cap(spec, 200.0);
  EXPECT_LE(ss::worst_case_power(spec, clock), 200.0);
  // Next clock up (if any) would bust the budget.
  for (std::size_t i = 0; i + 1 < spec.core_clocks.size(); ++i) {
    if (spec.core_clocks[i].value == clock.value)
      EXPECT_GT(ss::worst_case_power(spec, spec.core_clocks[i + 1]), 200.0);
  }
  // Uncappable budget -> minimum clock.
  EXPECT_DOUBLE_EQ(ss::max_core_clock_under_cap(spec, 1.0).value,
                   spec.min_core_clock().value);
  // Generous budget -> maximum clock.
  EXPECT_DOUBLE_EQ(ss::max_core_clock_under_cap(spec, 1e6).value,
                   spec.max_core_clock().value);
}

namespace {

/// The cap clock as a plain scan of the whole clock table: the reference
/// that max_core_clock_under_cap must match on every spec.
megahertz scanned_cap_clock(const gs::device_spec& spec, double budget_w) {
  megahertz best = spec.min_core_clock();
  for (const auto f : spec.core_clocks)
    if (ss::worst_case_power(spec, f) <= budget_w) best = f;
  return best;
}

/// Every clock's worst-case power and one ulp either side of it, plus 0, a
/// negative budget, NaN and +inf.
std::vector<double> cap_budgets(const gs::device_spec& spec) {
  std::vector<double> budgets{0.0, -50.0, std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()};
  for (const auto f : spec.core_clocks) {
    const double p = ss::worst_case_power(spec, f);
    for (const double b : {std::nextafter(p, -HUGE_VAL), p, std::nextafter(p, HUGE_VAL)})
      budgets.push_back(b);
  }
  return budgets;
}

}  // namespace

TEST(PowerManager, CapClockMatchesTheTableScanOnEveryShippedSpec) {
  // The binary search relies on worst-case power never falling along the
  // clock table; the other names make_device_spec accepts are aliases.
  for (const char* name : {"V100", "A100", "MI100", "PVC", "TITANX"}) {
    const auto spec = gs::make_device_spec(name);
    for (const double budget : cap_budgets(spec))
      EXPECT_EQ(ss::max_core_clock_under_cap(spec, budget).value,
                scanned_cap_clock(spec, budget).value)
          << spec.name << " at " << budget << " W";
  }
}

TEST(PowerManager, MixedNodeLocksEachBoardAtItsOwnCapClock) {
  // One node with V100 and A100 boards interleaved: each board is locked at
  // the cap clock of its own spec. A single hungry node keeps the whole cap:
  // (950 W - 350 W host) / 3 GPUs = 200 W per GPU, mid-table on both parts.
  ss::node_config cfg = capable_node("mixed");
  cfg.gpus = {"V100", "A100", "V100"};
  ss::controller ctl({cfg});
  ss::power_manager pm{ctl, 950.0};
  pm.rebalance_with_demand({2000.0});
  ASSERT_EQ(pm.node_caps().size(), 1u);
  const double per_gpu = (pm.node_caps()[0] - cfg.host_power_w) / 3.0;

  auto& n = ctl.node_at(0);
  for (const auto& dev : n.devices()) {
    const auto& spec = dev.spec();
    const auto cap = scanned_cap_clock(spec, per_gpu);
    const auto next = std::upper_bound(spec.core_clocks.begin(), spec.core_clocks.end(), cap,
                                       [](megahertz a, megahertz b) { return a.value < b.value; });
    ASSERT_NE(next, spec.core_clocks.end()) << spec.name << ": 200 W should not fit every clock";
    const auto binding = n.ctx()->bind(dev);
    const auto set = [&](megahertz core) {
      return binding.library->set_application_clocks(sv::user_context::root(), binding.index,
                                                     {spec.default_config().memory, core});
    };
    EXPECT_TRUE(set(cap).ok()) << spec.name << " at " << cap.value << " MHz";
    EXPECT_FALSE(set(*next).ok()) << spec.name << " at " << next->value << " MHz";
  }
}

TEST(PowerManager, RebalanceLocksClockBoundsAndReleaseClears) {
  ss::controller ctl({capable_node("gn01"), capable_node("gn02")});
  // Cap tight enough that GPUs cannot run at max clock:
  // per node 650 W - 350 W host = 300 W for 2 GPUs -> 150 W each.
  ss::power_manager pm{ctl, 1300.0};
  pm.rebalance();
  ASSERT_EQ(pm.node_caps().size(), 2u);

  auto& dev = ctl.node_at(0).devices()[0];
  const auto binding = ctl.node_at(0).ctx()->bind(dev);
  const auto st = binding.library->set_application_clocks(
      sv::user_context::root(), binding.index, {megahertz{877}, dev.spec().max_core_clock()});
  EXPECT_FALSE(st.ok());  // bound rejects max clock

  pm.release();
  EXPECT_TRUE(binding.library
                  ->set_application_clocks(sv::user_context::root(), binding.index,
                                           {megahertz{877}, dev.spec().max_core_clock()})
                  .ok());
  EXPECT_TRUE(pm.node_caps().empty());
}

TEST(PowerManager, IdleNodesDonateHeadroomToBusyNodes) {
  ss::controller ctl({capable_node("gn01"), capable_node("gn02")});
  // Make node 0 busy (draw power) before rebalancing.
  auto& busy_dev = ctl.node_at(0).devices()[0];
  gs::kernel_profile hot;
  hot.name = "hot";
  hot.features.float_add = 300;
  hot.features.float_mul = 300;
  hot.features.gl_access = 2;
  hot.work_items = 1 << 22;
  busy_dev.board()->execute(hot);

  // Tight cluster cap: the busy node's demand exceeds the 500 W fair
  // share, the idle node's does not.
  ss::power_manager pm{ctl, 1000.0};
  pm.rebalance();
  ASSERT_EQ(pm.node_caps().size(), 2u);
  // The idle node's cap shrinks toward its demand; the busy node receives
  // the donated headroom on top of its fair share.
  EXPECT_LT(pm.node_caps()[1], 500.0);
  EXPECT_GT(pm.node_caps()[0], 500.0);
  // Total never exceeds the cluster cap.
  EXPECT_LE(pm.node_caps()[0] + pm.node_caps()[1], 1000.0 + 1e-9);
}

TEST(PowerManager, CapBelowStaticFloorLocksMinimumClocks) {
  ss::controller ctl({capable_node("gn01"), capable_node("gn02")});
  // 400 W for the whole cluster is below even the hosts' static draw
  // (2 x 350 W): every GPU budget collapses to zero and the clock bound
  // must land on the lowest supported clock.
  ss::power_manager pm{ctl, 400.0};
  pm.rebalance();
  ASSERT_EQ(pm.node_caps().size(), 2u);
  EXPECT_LE(pm.node_caps()[0] + pm.node_caps()[1], 400.0 + 1e-9);

  for (std::size_t ni = 0; ni < ctl.node_count(); ++ni) {
    auto& n = ctl.node_at(ni);
    for (const auto& dev : n.devices()) {
      const auto binding = n.ctx()->bind(dev);
      const auto& spec = dev.spec();
      // Anything above the floor is rejected; the floor itself still works.
      const auto above =
          binding.library->set_application_clocks(sv::user_context::root(), binding.index,
                                                  {spec.default_config().memory,
                                                   spec.core_clocks.at(1)});
      EXPECT_FALSE(above.ok());
      const auto floor =
          binding.library->set_application_clocks(sv::user_context::root(), binding.index,
                                                  {spec.default_config().memory,
                                                   spec.min_core_clock()});
      EXPECT_TRUE(floor.ok());
    }
  }
}

TEST(PowerManager, SingleNodeClusterKeepsTheWholeCap) {
  ss::controller ctl({capable_node("gn01")});
  ss::power_manager pm{ctl, 950.0};

  // Idle demand (350 W host + 2 idle GPUs) sits under the fair share, so
  // the node is capped at demand x 1.05 -- never the full cap.
  pm.rebalance();
  ASSERT_EQ(pm.node_caps().size(), 1u);
  EXPECT_LT(pm.node_caps()[0], 950.0);
  EXPECT_GT(pm.node_caps()[0], ctl.node_at(0).config().host_power_w);

  // A hungry single node keeps the entire cluster cap: 950 W - 350 W host
  // leaves 300 W per GPU, so even the maximum clock fits the bound.
  pm.rebalance_with_demand({1200.0});
  ASSERT_EQ(pm.node_caps().size(), 1u);
  EXPECT_DOUBLE_EQ(pm.node_caps()[0], 950.0);
  auto& dev = ctl.node_at(0).devices()[0];
  const auto binding = ctl.node_at(0).ctx()->bind(dev);
  EXPECT_TRUE(binding.library
                  ->set_application_clocks(sv::user_context::root(), binding.index,
                                           {megahertz{877}, dev.spec().max_core_clock()})
                  .ok());
}

TEST(PowerManager, NodeJoiningInvalidatesSampledDemand) {
  ss::controller ctl({capable_node("gn01"), capable_node("gn02")});
  ss::power_manager pm{ctl, 2000.0};

  std::vector<double> demand{500.0, 500.0};
  pm.rebalance_with_demand(demand);
  ASSERT_EQ(pm.node_caps().size(), 2u);

  // A node joins between sampling and rebalancing: the stale demand vector
  // must be rejected, not silently misattributed.
  ctl.add_node(capable_node("gn03"));
  EXPECT_THROW(pm.rebalance_with_demand(demand), std::invalid_argument);

  demand.push_back(400.0);
  pm.rebalance_with_demand(demand);
  EXPECT_EQ(pm.node_caps().size(), 3u);
}

TEST(PowerManager, NodeLeavingMidRebalanceRedistributes) {
  ss::controller ctl({capable_node("gn01"), capable_node("gn02"), capable_node("gn03")});
  ss::power_manager pm{ctl, 3000.0};
  pm.rebalance_with_demand({900.0, 900.0, 900.0});
  ASSERT_EQ(pm.node_caps().size(), 3u);

  // Only idle nodes may leave.
  ctl.node_at(1).add_job();
  EXPECT_FALSE(ctl.remove_node("gn02"));
  ctl.node_at(1).remove_job();
  EXPECT_TRUE(ctl.remove_node("gn02"));
  EXPECT_FALSE(ctl.remove_node("gn02"));  // already gone
  ASSERT_EQ(ctl.node_count(), 2u);

  // Stale 3-entry demand throws; a fresh sample rebalances over survivors,
  // whose fair share grows (3000/2 instead of 3000/3).
  EXPECT_THROW(pm.rebalance_with_demand({900.0, 900.0, 900.0}), std::invalid_argument);
  pm.rebalance_with_demand({1400.0, 1400.0});
  ASSERT_EQ(pm.node_caps().size(), 2u);
  EXPECT_GT(pm.node_caps()[0], 1000.0);  // > old fair share
}

TEST(PowerManager, ZeroTotalDemandCollapsesEveryCapToTheFloor) {
  ss::controller ctl({capable_node("gn01"), capable_node("gn02")});
  ss::power_manager pm{ctl, 2000.0};

  // Every node reports zero demand (all boards parked, host draw already
  // folded out by the caller): each cap collapses to demand x 1.05 = 0 and
  // the GPU clock bounds land on the table floor — never a divide-by-zero
  // or a negative budget.
  pm.rebalance_with_demand({0.0, 0.0});
  ASSERT_EQ(pm.node_caps().size(), 2u);
  EXPECT_DOUBLE_EQ(pm.node_caps()[0], 0.0);
  EXPECT_DOUBLE_EQ(pm.node_caps()[1], 0.0);

  for (std::size_t ni = 0; ni < ctl.node_count(); ++ni) {
    auto& n = ctl.node_at(ni);
    for (const auto& dev : n.devices()) {
      const auto binding = n.ctx()->bind(dev);
      const auto& spec = dev.spec();
      const auto floor =
          binding.library->set_application_clocks(sv::user_context::root(), binding.index,
                                                  {spec.default_config().memory,
                                                   spec.min_core_clock()});
      EXPECT_TRUE(floor.ok());
      const auto above =
          binding.library->set_application_clocks(sv::user_context::root(), binding.index,
                                                  {spec.default_config().memory,
                                                   spec.core_clocks.at(1)});
      EXPECT_FALSE(above.ok());
    }
  }

  // A later non-zero sample restores budget: the bounds must reopen.
  pm.rebalance_with_demand({900.0, 900.0});
  auto& n0 = ctl.node_at(0);
  const auto binding = n0.ctx()->bind(n0.devices()[0]);
  EXPECT_TRUE(binding.library
                  ->set_application_clocks(sv::user_context::root(), binding.index,
                                           n0.devices()[0].spec().default_config())
                  .ok());
}

// Tests for the discrete-event cluster simulator: engine ordering and
// determinism, the synthetic trace generator and its CSV round-trip, the
// three scheduling policies, facility power budgeting, and the
// reproducibility of the summary CSV.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "synergy/cluster/simulator.hpp"
#include "synergy/common/rng.hpp"
#include "synergy/econ/trace.hpp"
#include "synergy/gpusim/device_spec.hpp"
#include "synergy/gpusim/dvfs_model.hpp"
#include "synergy/sched/controller.hpp"
#include "synergy/workloads/benchmark.hpp"

namespace sc = synergy::cluster;
namespace sm = synergy::metrics;
namespace ss = synergy::sched;
namespace sw = synergy::workloads;

namespace {

sc::traced_job make_job(int id, double submit_s, int n_gpus, int iterations,
                        const std::string& kernel = "mat_mul",
                        const std::string& target = "default") {
  sc::traced_job j;
  j.id = id;
  j.name = kernel + "_" + std::to_string(id);
  j.submit_s = submit_s;
  j.n_gpus = n_gpus;
  j.kernel = kernel;
  j.work_items = 1 << 26;
  j.iterations = iterations;
  j.target = target;
  return j;
}

/// The outcome of job `id` of `trace`, the trace `sim` last replayed: a
/// result row is its trace row's outcome.
const sc::job_result& result_for(const sc::simulator& sim, const sc::job_trace& trace, int id) {
  for (std::size_t i = 0; i < trace.jobs.size(); ++i)
    if (trace.jobs[i].id == id) return sim.results().at(i);
  throw std::out_of_range("no such job");
}

/// Wraps a policy and checks the view the simulator hands to every place()
/// call: the job fits the view's free GPUs, the view has as many busy GPUs
/// as the running jobs hold, a free GPU is free from view.now, a busy GPU is
/// not busy until before view.now, and (with `check_reservation`) a backfill
/// candidate sees the EASY shadow time of the oldest pending job. Each check
/// counts its violations.
class view_checking_policy final : public sc::scheduling_policy {
 public:
  explicit view_checking_policy(std::unique_ptr<sc::scheduling_policy> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool backfills() const override { return inner_->backfills(); }
  [[nodiscard]] bool defer(const sc::queued_job& job, const sc::cluster_view& view) const override {
    return inner_->defer(job, view);
  }

  std::optional<sc::placement> place(const sc::queued_job& job,
                                     const sc::cluster_view& view) override {
    ++calls;
    if (static_cast<std::size_t>(job.job.n_gpus) > view.free_gpus()) ++misfits;

    std::size_t busy = 0;
    std::vector<double> until;
    for (const auto& node : view.nodes) {
      for (std::size_t g = 0; g < node.gpu_busy.size(); ++g) {
        if (node.gpu_busy[g]) {
          ++busy;
          if (node.busy_until[g] < view.now) ++stale_busy;
        } else if (node.busy_until[g] != view.now) {
          ++stale_free;
        }
      }
      until.insert(until.end(), node.busy_until.begin(), node.busy_until.end());
    }
    std::size_t held = 0;
    const sc::traced_job* head = nullptr;
    for (std::size_t i = 0; i < trace->jobs.size(); ++i) {
      const auto& job = trace->jobs[i];
      const auto state = sim->results()[i].state;
      if (state == ss::job_state::running) held += static_cast<std::size_t>(job.n_gpus);
      // Results are in trace order, which is arrival order here.
      if (!head && state == ss::job_state::pending && job.submit_s <= view.now) head = &job;
    }
    if (busy != held) ++stale_views;

    if (!view.is_head) ++backfill_calls;
    if (!view.is_head && check_reservation) {
      std::sort(until.begin(), until.end());
      const auto n = head ? static_cast<std::size_t>(head->n_gpus) : 0;
      const double shadow = n >= 1 && n <= until.size()
                                ? until[n - 1]
                                : std::numeric_limits<double>::infinity();
      if (!head || view.head_reservation_s != shadow) ++wrong_reservations;
    }
    return inner_->place(job, view);
  }

  const sc::simulator* sim{nullptr};
  const sc::job_trace* trace{nullptr};  ///< the trace `sim` replays
  /// The reservation check takes the oldest pending result row for the
  /// queue head, which only holds on a plain replay: a requeued job goes to
  /// the back of the queue, not to its arrival place.
  bool check_reservation{true};
  std::size_t calls{0};
  std::size_t backfill_calls{0};
  std::size_t misfits{0};
  std::size_t stale_views{0};
  std::size_t stale_free{0};
  std::size_t stale_busy{0};
  std::size_t wrong_reservations{0};

 private:
  std::unique_ptr<sc::scheduling_policy> inner_;
};

}  // namespace

// ------------------------------------------------------------------ engine ----

TEST(EventEngine, FiresInTimeOrderRegardlessOfScheduleOrder) {
  sc::event_engine eng;
  std::vector<int> fired;
  eng.at(5.0, [&] { fired.push_back(5); });
  eng.at(1.0, [&] { fired.push_back(1); });
  eng.at(3.0, [&] { fired.push_back(3); });
  EXPECT_EQ(eng.pending(), 3u);
  EXPECT_EQ(eng.run(), 3u);
  EXPECT_EQ(fired, (std::vector<int>{1, 3, 5}));
  EXPECT_DOUBLE_EQ(eng.now(), 5.0);
  EXPECT_TRUE(eng.empty());
}

TEST(EventEngine, EqualTimestampsFireInScheduleOrder) {
  sc::event_engine eng;
  std::vector<char> fired;
  eng.at(1.0, [&] { fired.push_back('a'); });
  eng.at(1.0, [&] { fired.push_back('b'); });
  eng.at(1.0, [&] { fired.push_back('c'); });
  eng.run();
  EXPECT_EQ(fired, (std::vector<char>{'a', 'b', 'c'}));
}

TEST(EventEngine, HandlersMayScheduleFurtherEvents) {
  sc::event_engine eng;
  std::vector<double> times;
  eng.at(1.0, [&] {
    times.push_back(eng.now());
    eng.after(2.0, [&] { times.push_back(eng.now()); });
    // Scheduling into the past clamps to now: fires next, not never.
    eng.at(0.25, [&] { times.push_back(eng.now()); });
  });
  eng.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.0);  // clamped past event
  EXPECT_DOUBLE_EQ(times[2], 3.0);
}

TEST(EventEngine, RunUntilStopsAtTheFence) {
  sc::event_engine eng;
  int fired = 0;
  eng.at(1.0, [&] { ++fired; });
  eng.at(2.0, [&] { ++fired; });
  eng.at(10.0, [&] { ++fired; });
  EXPECT_EQ(eng.run_until(5.0), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(eng.now(), 5.0);
  EXPECT_EQ(eng.pending(), 1u);
}

namespace {

/// Typed-heap fixture: events are plain ints naming themselves, and drain()
/// returns them in fire order.
using int_engine = sc::basic_event_engine<int>;

std::vector<int> drain(int_engine& eng) {
  std::vector<int> fired;
  eng.run([&](int ev) { fired.push_back(ev); });
  return fired;
}

}  // namespace

TEST(EventEngine, RestoredHeapKeepsTimeAndScheduleOrder) {
  int_engine src;
  // Co-timed events at t=2 and t=4 scheduled out of order, plus one event
  // the source fires before the copy is taken.
  for (const auto& [t, ev] : std::vector<std::pair<double, int>>{
           {4.0, 40}, {2.0, 20}, {0.5, 5}, {2.0, 21}, {4.0, 41}, {2.0, 22}, {3.0, 30}})
    src.at(t, ev);
  std::vector<int> early;
  src.run_until(1.0, [&](int ev) { early.push_back(ev); });
  EXPECT_EQ(early, (std::vector<int>{5}));

  // Round trip through the pending entries, reversed to prove restore()
  // does not depend on the order it receives them in.
  auto entries = src.entries();
  std::reverse(entries.begin(), entries.end());
  int_engine copy;
  copy.restore(src.now(), src.next_seq(), entries);
  EXPECT_DOUBLE_EQ(copy.now(), 1.0);
  EXPECT_EQ(copy.next_seq(), src.next_seq());
  EXPECT_EQ(copy.pending(), 6u);

  const std::vector<int> expected{20, 21, 22, 30, 40, 41};
  EXPECT_EQ(drain(copy), expected);
  EXPECT_EQ(drain(src), expected);
}

TEST(EventEngine, EventsScheduledAfterRestoreRankBehindRestoredOnes) {
  int_engine src;
  src.at(2.0, 1);
  src.at(2.0, 2);
  int_engine copy;
  copy.restore(src.now(), src.next_seq(), src.entries());
  // Same timestamp as the restored pair: the fresh sequence number loses
  // every tie, exactly as it would have in the source engine.
  EXPECT_EQ(copy.at(2.0, 3), src.next_seq());
  copy.at(1.0, 0);
  EXPECT_EQ(drain(copy), (std::vector<int>{0, 1, 2, 3}));
}

// ------------------------------------------------------------- trace model ----

TEST(JobTrace, GenerationIsDeterministicInTheSeed) {
  sc::trace_config cfg;
  cfg.n_jobs = 50;
  const auto a = sc::generate_trace(cfg);
  const auto b = sc::generate_trace(cfg);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.to_csv(), b.to_csv());

  cfg.seed = 43;
  const auto c = sc::generate_trace(cfg);
  EXPECT_NE(a, c);
}

TEST(JobTrace, CsvRoundTripIsExact) {
  sc::trace_config cfg;
  cfg.n_jobs = 100;
  cfg.target_mix = {"ES_50", "MIN_EDP", "default"};
  const auto trace = sc::generate_trace(cfg);
  const auto csv = trace.to_csv();
  // The seed is recorded in the header for bit-identical replay.
  EXPECT_NE(csv.find("# synergy-cluster-trace v1 seed=42 jobs=100"), std::string::npos);
  EXPECT_EQ(sc::job_trace::from_csv(csv), trace);
}

TEST(JobTrace, LoaderRejectsMalformedInput) {
  EXPECT_THROW((void)sc::job_trace::from_csv(""), std::invalid_argument);
  EXPECT_THROW((void)sc::job_trace::from_csv("id,name\n1,x\n"), std::invalid_argument);
  const auto csv = sc::generate_trace({.n_jobs = 3}).to_csv();
  EXPECT_THROW((void)sc::job_trace::from_csv(csv + "9,bad,0,1,mat_mul,1,1\n"),
               std::invalid_argument);  // short row
  // An integer column must be all digits: "1x" GPUs ran as 1 GPU.
  EXPECT_EQ(sc::job_trace::from_csv(csv + "9,ok,0,1,mat_mul,1,1,default\n").jobs.back().n_gpus, 1);
  for (const char* row : {"9x,bad,0,1,mat_mul,1,1,default\n", "9,bad,0,1x,mat_mul,1,1,default\n",
                          "9,bad,0,1,mat_mul,1,1x,default\n"})
    EXPECT_THROW((void)sc::job_trace::from_csv(csv + row), std::invalid_argument) << row;
  // So must a real column and the header's seed, and a bad number names its
  // column and the record's line: the appended row is line 6.
  const auto expect_named = [](const std::string& text, const std::string& named) {
    try {
      (void)sc::job_trace::from_csv(text);
      ADD_FAILURE() << "loaded, but " << named << " is malformed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(named), std::string::npos) << e.what();
    }
  };
  for (const auto& [row, named] : std::vector<std::pair<std::string, std::string>>{
           {"9,bad,0,x,mat_mul,1,1,default\n", "line 6: n_gpus"},
           {"9,bad,0,99999999999,mat_mul,1,1,default\n", "line 6: n_gpus"},
           {"9,bad,soon,1,mat_mul,1,1,default\n", "line 6: submit_s"},
           {"9,bad,5.59x,1,mat_mul,1,1,default\n", "line 6: submit_s"},
           {"9,bad,0,1,mat_mul,268435456abc,1,default\n", "line 6: work_items"},
           {"9,bad,0,1,mat_mul,1,1,default,0,-1junk\n", "line 6: deadline_s"}})
    expect_named(csv + row, named);
  const std::string rows = csv.substr(csv.find('\n'));
  for (const std::string seed : {"abc", "1x"})
    expect_named("# synergy-cluster-trace v1 seed=" + seed + " jobs=3" + rows, "line 1: seed");
}

TEST(JobTrace, LoaderRejectsRepeatedJobIds) {
  auto trace = sc::generate_trace({.n_jobs = 3});
  trace.jobs[2].id = 1;  // ids 1, 2, 1
  try {
    (void)sc::job_trace::from_csv(trace.to_csv());
    FAIL() << "a trace with a repeated job id parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("repeated job id 1"), std::string::npos) << e.what();
  }
}

TEST(JobTrace, DrawsKernelsFromTheRequestedPool) {
  sc::trace_config cfg;
  cfg.n_jobs = 40;
  cfg.kernels = {"mat_mul", "sobel3"};
  for (const auto& j : sc::generate_trace(cfg).jobs)
    EXPECT_TRUE(j.kernel == "mat_mul" || j.kernel == "sobel3") << j.kernel;
}

// ---------------------------------------------------------------- policies ----

TEST(Policies, FifoHeadBlocksBackfillDoesNot) {
  // 1 node x 2 GPUs. A (1 GPU, long) occupies one GPU; B (2 GPUs) blocks
  // at the head; C (1 GPU, short) fits the free GPU and finishes before
  // A drains, so EASY may slide it forward while FIFO may not.
  sc::job_trace trace;
  trace.jobs = {make_job(1, 0.0, 1, 600), make_job(2, 1.0, 2, 100),
                make_job(3, 2.0, 1, 10)};

  sc::cluster_config cc;
  cc.n_nodes = 1;
  cc.gpus_per_node = 2;

  sc::simulator fifo{cc, sc::make_fifo()};
  fifo.run(trace);
  sc::simulator easy{cc, sc::make_easy_backfill()};
  easy.run(trace);

  // Everybody completes either way.
  for (const auto* sim : {&fifo, &easy})
    for (const auto& r : sim->results()) EXPECT_EQ(r.state, ss::job_state::completed);

  EXPECT_GT(result_for(fifo, trace, 3).queue_wait_s, 0.0);       // stuck behind B
  EXPECT_DOUBLE_EQ(result_for(easy, trace, 3).queue_wait_s, 0.0);  // backfilled
  // The head is never delayed by the backfill.
  EXPECT_DOUBLE_EQ(result_for(easy, trace, 2).start_s, result_for(fifo, trace, 2).start_s);
}

TEST(Policies, EnergyAwareRunsLowerClocksAndSavesEnergy) {
  sc::trace_config tc;
  tc.n_jobs = 120;
  tc.target_mix = {"ES_50"};
  tc.seed = 9;
  const auto trace = sc::generate_trace(tc);

  sc::cluster_config cc;
  cc.n_nodes = 4;
  cc.gpus_per_node = 4;

  sc::simulator fifo{cc, sc::make_fifo()};
  const auto base = fifo.run(trace);
  sc::simulator energy{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  const auto tuned = energy.run(trace);

  const auto default_mhz =
      synergy::gpusim::make_device_spec(cc.device).default_core_clock().value;
  bool any_lower = false;
  for (const auto& r : energy.results()) any_lower |= r.core_mhz < default_mhz;
  EXPECT_TRUE(any_lower);
  for (const auto& r : fifo.results()) EXPECT_DOUBLE_EQ(r.core_mhz, default_mhz);

  // The acceptance bar: less total energy at <= 10% makespan loss.
  EXPECT_LT(tuned.total_gpu_energy_j, base.total_gpu_energy_j);
  EXPECT_LE(tuned.makespan_s, base.makespan_s * 1.10);
}

TEST(Policies, UncapablenodesRunDefaultClocks) {
  sc::trace_config tc;
  tc.n_jobs = 30;
  tc.gpu_mix = {1, 1, 2};  // fits the 4-GPU test cluster
  tc.target_mix = {"ES_50"};
  const auto trace = sc::generate_trace(tc);

  sc::cluster_config cc;
  cc.n_nodes = 2;
  cc.gpus_per_node = 2;
  cc.tag_nvgpufreq = false;  // Sec. 7.2 chain fails at the GRES check
  sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  sim.run(trace);

  const auto default_mhz =
      synergy::gpusim::make_device_spec(cc.device).default_core_clock().value;
  for (const auto& r : sim.results()) EXPECT_DOUBLE_EQ(r.core_mhz, default_mhz);
}

TEST(Policies, PlaceIsOfferedFittingJobsOnACurrentView) {
  sc::trace_config burst;
  burst.n_jobs = 300;
  burst.mean_interarrival_s = 0.01;  // a burst: the queue runs hundreds deep
  burst.seed = 31;
  sc::cluster_config cc;
  cc.n_nodes = 4;
  cc.gpus_per_node = 4;

  // Two replays where the running jobs change under the view: governor
  // ticks move a job's busy_until, and node crashes shift the GPU indices
  // of the nodes behind the victim while restarts append a node.
  sc::trace_config tc;
  tc.n_jobs = 120;
  tc.seed = 31;
  tc.gpu_mix = {1, 1, 2, 2, 4};  // fits the cluster while a node is down
  auto governed = cc;
  governed.governor.enabled = true;
  governed.governor.spec = synergy::governor::parse_governor_spec("hybrid").value();
  governed.drift.at_s = 60.0;
  governed.drift.power_skew = 1.5;
  governed.drift.freq_exponent = 1.0;
  auto chaotic = cc;
  chaotic.chaos.seed = 5;
  chaotic.chaos.mtbf_s = 60.0;
  chaotic.chaos.restart_delay_s = 30.0;
  chaotic.chaos.max_crashes = 3;

  // Two where a pass may reuse an earlier stamp or skip the EASY selection.
  // A device loss drains a node whose GPUs were busy until later, and the
  // pass that follows runs at the same instant.
  auto faulted = cc;
  faulted.faults.seed = 9;
  faulted.faults.device_lost_rate = 0.05;
  faulted.faults.max_node_losses = 2;
  auto faulted_tc = tc;
  faulted_tc.n_jobs = 200;
  faulted_tc.mean_interarrival_s = 0.2;
  // The cost policy defers heads that fit, and the cap blocks others that
  // fit, so the pass prices their reservation while the GPUs they need are
  // free.
  auto priced = cc;
  priced.facility_cap_w = 2600.0;
  priced.econ.enabled = true;
  synergy::econ::synthetic_config tariff;
  tariff.seed = 3;
  tariff.period_s = 240.0;
  tariff.step_s = 10.0;
  tariff.noise = 0.01;
  priced.econ.price = synergy::econ::synthetic_diurnal(tariff);
  auto priced_tc = faulted_tc;
  priced_tc.mean_interarrival_s = 1.0;
  priced_tc.deferrable_fraction = 0.6;

  struct replay {
    std::string what;
    sc::cluster_config cc;
    sc::trace_config tc;
    std::string policy;
  };
  for (const auto& [what, config, trace_config, policy] :
       {replay{"burst", cc, burst, "backfill"}, replay{"burst", cc, burst, "energy"},
        replay{"governed", governed, tc, "energy"}, replay{"chaotic", chaotic, tc, "energy"},
        replay{"faulted", faulted, faulted_tc, "energy"},
        replay{"priced", priced, priced_tc, "cost"}}) {
    const auto trace = sc::generate_trace(trace_config);
    auto wrapped = std::make_unique<view_checking_policy>(sc::make_policy(
        policy, sc::make_suite_planner(config.device), std::nullopt, &config.econ));
    auto& checker = *wrapped;
    // A requeued job goes to the back of the queue (see check_reservation).
    checker.check_reservation = what == "burst" || what == "priced";
    sc::simulator sim{config, std::move(wrapped)};
    checker.sim = &sim;
    checker.trace = &trace;
    const auto summary = sim.run(trace);
    SCOPED_TRACE(what + " " + summary.policy);

    EXPECT_EQ(summary.completed, trace.jobs.size());
    EXPECT_GT(checker.backfill_calls, 0u);
    EXPECT_EQ(checker.misfits, 0u) << "of " << checker.calls << " place() calls";
    EXPECT_EQ(checker.stale_views, 0u);
    EXPECT_EQ(checker.stale_free, 0u);
    EXPECT_EQ(checker.stale_busy, 0u);
    EXPECT_EQ(checker.wrong_reservations, 0u) << "of " << checker.backfill_calls;
    if (config.governor.enabled) EXPECT_GT(summary.governor_clock_changes, 0u);
    if (config.chaos.enabled()) {
      EXPECT_EQ(summary.node_crashes, config.chaos.max_crashes);
      EXPECT_EQ(summary.node_restarts, summary.node_crashes);
    }
    if (config.faults.enabled()) {
      EXPECT_EQ(summary.nodes_lost, config.faults.max_node_losses);
      EXPECT_GT(summary.requeues, 0u);
    }
    if (config.econ.enabled) {
      EXPECT_GT(summary.econ_jobs_deferred, 0u);
      EXPECT_GT(summary.cap_demotions, 0u);
    }
  }
}

TEST(Policies, APassAtTheInstantOfADrainOrARestartSeesFreshFreeGpus) {
  // Passes at one instant share the stamp of the first, until GPUs are
  // freed or join. 2 x 4 GPUs, one crash, one restart: job 1 spans both
  // nodes, jobs 2 and 3 arrive at the crash's instant (job 3 does not fit
  // until the crash drains job 1), and job 5 at the restart's instant (it
  // does not fit until the node is back). Arrivals fire before the crash
  // and the restart at an equal time, as they were scheduled first.
  sc::cluster_config cc;
  cc.n_nodes = 2;
  cc.gpus_per_node = 4;
  cc.chaos.seed = 11;
  cc.chaos.mtbf_s = 20.0;
  cc.chaos.restart_delay_s = 5.0;
  cc.chaos.max_crashes = 1;
  // The crash time as run() draws it.
  synergy::common::pcg32 chaos_rng{cc.chaos.seed};
  const double crash_s = -cc.chaos.mtbf_s * std::log1p(-chaos_rng.uniform());
  const double restart_s = crash_s + cc.chaos.restart_delay_s;

  sc::job_trace trace;
  trace.jobs = {make_job(1, 0.0, 6, 4000), make_job(2, crash_s, 1, 4000),
                make_job(3, crash_s, 2, 4000), make_job(5, restart_s, 2, 1)};
  auto wrapped = std::make_unique<view_checking_policy>(sc::make_easy_backfill());
  auto& checker = *wrapped;
  checker.check_reservation = false;  // the crash requeues job 1
  sc::simulator sim{cc, std::move(wrapped)};
  checker.sim = &sim;
  checker.trace = &trace;
  const auto summary = sim.run(trace);

  EXPECT_EQ(summary.completed, trace.jobs.size());
  EXPECT_EQ(summary.node_crashes, 1u);
  EXPECT_EQ(summary.node_restarts, 1u);
  EXPECT_EQ(result_for(sim, trace, 1).requeues, 1);
  // The passes that follow the drain and the restart placed these.
  EXPECT_EQ(result_for(sim, trace, 3).start_s, crash_s);
  EXPECT_EQ(result_for(sim, trace, 5).start_s, restart_s);
  EXPECT_EQ(checker.misfits, 0u);
  EXPECT_EQ(checker.stale_views, 0u);
  EXPECT_EQ(checker.stale_free, 0u) << "of " << checker.calls << " place() calls";
  EXPECT_EQ(checker.stale_busy, 0u);
}

TEST(Policies, AFullClusterStillAsksDeferWhileTheEconMeterRuns) {
  // One GPU. Job 1 holds it into the cheap half of the tariff; job 2 is
  // deferrable and arrives in the pricey half, when no GPU is free. The
  // pass at its arrival still asks defer(), so its wait counts as a
  // deferral even though the price has dropped by the time it starts.
  sc::cluster_config cc;
  cc.n_nodes = 1;
  cc.gpus_per_node = 1;
  cc.econ.enabled = true;
  cc.econ.price = synergy::econ::step_trace({{0.0, 1.0}, {100.0, 0.1}}, 200.0);
  sc::job_trace trace;
  trace.jobs = {make_job(1, 0.0, 1, 4000), make_job(2, 10.0, 1, 10)};
  trace.jobs[1].deferrable = true;
  sc::simulator sim{cc, sc::make_cost_aware(&cc.econ)};
  const auto summary = sim.run(trace);

  ASSERT_EQ(summary.completed, 2u);
  ASSERT_GT(result_for(sim, trace, 1).end_s, 100.0);
  EXPECT_EQ(result_for(sim, trace, 2).start_s, result_for(sim, trace, 1).end_s);
  EXPECT_EQ(summary.econ_jobs_deferred, 1u);
}

TEST(Policies, EnergyAwarePlacementMatchesTheSortedReference) {
  // The order the policy places in: fewer busy GPUs first, ties by index (a
  // stable sort), then first fit.
  const auto sorted_first_fit = [](const sc::cluster_view& view, int n) {
    std::vector<std::size_t> order(view.nodes.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    const auto busy = [&](std::size_t i) {
      return std::count(view.nodes[i].gpu_busy.begin(), view.nodes[i].gpu_busy.end(), true);
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return busy(a) < busy(b); });
    std::vector<sc::gpu_slot> slots;
    for (const std::size_t ni : order)
      for (std::size_t g = 0; g < view.nodes[ni].gpu_busy.size(); ++g)
        if (!view.nodes[ni].gpu_busy[g] && static_cast<int>(slots.size()) < n)
          slots.push_back({ni, g});
    return slots;
  };
  const synergy::common::frequency_config planned{synergy::common::megahertz{877.0},
                                                  synergy::common::megahertz{900.0}};
  // One policy for every view, so its scratch is reused across view sizes.
  auto policy = sc::make_energy_aware([&](const std::string&, const sm::target&) {
    return sc::planned_clocks{planned};
  });

  // Checks every request size from one GPU to all free ones on `view`.
  const auto check = [&](const sc::cluster_view& view, const std::string& what) {
    const auto n_free = static_cast<int>(view.free_gpus());
    for (int n = 1; n <= n_free; ++n) {
      const auto pl = policy->place({make_job(1, 0.0, n, 10, "mat_mul", "ES_50"), 1.0}, view);
      ASSERT_TRUE(pl.has_value()) << what << ", " << n << " GPUs";
      ASSERT_EQ(pl->gpus, sorted_first_fit(view, n)) << what << ", " << n << " GPUs";
      EXPECT_EQ(pl->config.has_value(), view.freq_capable) << what << ", " << n << " GPUs";
      if (pl->config) EXPECT_EQ(*pl->config, planned);
    }
  };
  const auto make_view = [](std::vector<std::size_t> widths) {
    sc::cluster_view view;
    view.is_head = true;
    view.freq_capable = true;
    for (const std::size_t w : widths)
      view.nodes.push_back({std::vector<bool>(w, false), std::vector<double>(w, 0.0)});
    return view;
  };

  // Seeded random views: 1-70 nodes of 1-8 GPUs each, widths mixed within
  // a view, capability per view and busy bits at random.
  synergy::common::pcg32 rng{77};
  for (int v = 0; v < 300; ++v) {
    std::vector<std::size_t> widths(1 + rng.bounded(70));
    for (auto& w : widths) w = 1 + rng.bounded(8);
    auto view = make_view(widths);
    view.freq_capable = rng.bounded(3) != 0;
    for (auto& node : view.nodes)
      for (std::size_t g = 0; g < node.gpu_busy.size(); ++g) node.gpu_busy[g] = rng.bounded(2) == 0;
    check(view, "random view " + std::to_string(v));
  }

  // Every node equally busy: pure index order.
  auto even = make_view({2, 4, 8, 3, 1, 6});
  for (auto& node : even.nodes) node.gpu_busy[node.gpu_busy.size() - 1] = true;
  check(even, "equally busy");
  // A cluster that fails the check chain: no clock plan, whatever the request.
  auto uncapable = make_view({4, 2, 8, 1});
  uncapable.freq_capable = false;
  uncapable.nodes[2].gpu_busy[0] = true;
  check(uncapable, "no capable node");
}

TEST(Policies, RegistryResolvesNamesAndRejectsUnknown) {
  EXPECT_EQ(sc::make_policy("fifo")->name(), "fifo");
  EXPECT_EQ(sc::make_policy("backfill")->name(), "backfill");
  EXPECT_EQ(sc::make_policy("energy")->name(), "energy");
  EXPECT_THROW((void)sc::make_policy("sjf"), std::invalid_argument);
}

// ------------------------------------------------------------ power budget ----

TEST(PowerBudget, FacilityPowerNeverExceedsTheCapAtAnyEvent) {
  sc::trace_config tc;
  tc.n_jobs = 80;
  tc.gpu_mix = {1, 1, 2};  // fits the 4-GPU test cluster
  tc.seed = 5;
  const auto trace = sc::generate_trace(tc);

  sc::cluster_config cc;
  cc.n_nodes = 2;
  cc.gpus_per_node = 2;
  // Hosts draw 700 W, idle GPUs ~160 W; four busy GPUs could reach
  // ~1900 W, so 1400 W forces the budget manager to defer and demote.
  cc.facility_cap_w = 1400.0;
  // Drifted boards draw half as much again as the model says from the
  // start, and the budget registers the drifted draw, so admission has to
  // price it too.
  auto drifted = cc;
  drifted.drift.at_s = 0.0;
  drifted.drift.power_skew = 1.5;

  for (const auto& [what, config] : {std::pair{"plain", cc}, std::pair{"drifted", drifted}}) {
    SCOPED_TRACE(what);
    sc::simulator sim{config, sc::make_easy_backfill()};
    const auto summary = sim.run(trace);

    ASSERT_FALSE(sim.power_samples().empty());
    for (const auto& [t, w] : sim.power_samples())
      ASSERT_LE(w, config.facility_cap_w + 1e-6) << "at t=" << t;
    EXPECT_LE(summary.peak_facility_power_w, config.facility_cap_w + 1e-6);
    EXPECT_GT(summary.cap_rebalances, 0u);
    EXPECT_GT(summary.cap_demotions, 0u);
    EXPECT_EQ(summary.completed, summary.jobs);
  }
}

TEST(PowerBudget, AdmissionAloneHoldsTheCap) {
  // The budget counts rebalance points and locks no clocks. On the input
  // above, admission alone keeps the facility under the cap.
  sc::trace_config tc;
  tc.n_jobs = 80;
  tc.gpu_mix = {1, 1, 2};
  tc.seed = 5;
  sc::cluster_config cc;
  cc.n_nodes = 2;
  cc.gpus_per_node = 2;
  cc.facility_cap_w = 1400.0;
  sc::simulator sim{cc, sc::make_easy_backfill()};
  const auto summary = sim.run(sc::generate_trace(tc));
  EXPECT_GT(summary.cap_rebalances, 0u);
  EXPECT_GT(summary.cap_demotions, 0u);
  EXPECT_LE(summary.peak_facility_power_w, cc.facility_cap_w + 1e-6);
}

TEST(PowerBudget, UncappedRunNeverRebalances) {
  const auto trace = sc::generate_trace({.n_jobs = 20, .gpu_mix = {1, 2, 4}});
  sc::cluster_config cc;
  cc.n_nodes = 2;
  cc.gpus_per_node = 2;
  sc::simulator sim{cc, sc::make_fifo()};
  const auto summary = sim.run(trace);
  EXPECT_EQ(summary.cap_rebalances, 0u);
  EXPECT_EQ(summary.cap_demotions, 0u);
  EXPECT_EQ(summary.completed, summary.jobs);
}

TEST(PowerBudget, ImpossibleJobsFailInsteadOfStarvingTheQueue) {
  sc::job_trace trace;
  trace.jobs = {make_job(1, 0.0, 8, 10),   // more GPUs than the cluster has
                make_job(2, 1.0, 1, 10)};  // fine
  sc::cluster_config cc;
  cc.n_nodes = 1;
  cc.gpus_per_node = 2;
  sc::simulator sim{cc, sc::make_fifo()};
  const auto summary = sim.run(trace);
  EXPECT_EQ(result_for(sim, trace, 1).state, ss::job_state::failed);
  EXPECT_EQ(result_for(sim, trace, 2).state, ss::job_state::completed);
  EXPECT_EQ(summary.failed, 1u);

  // A cap below the job's minimum draw also fails it at arrival.
  cc.facility_cap_w = 460.0;  // host 350 + 2 idle GPUs is ~430 W
  sc::job_trace hot;
  hot.jobs = {make_job(1, 0.0, 2, 50)};
  sc::simulator capped{cc, sc::make_fifo()};
  capped.run(hot);
  EXPECT_EQ(result_for(capped, hot, 1).state, ss::job_state::failed);
  EXPECT_FALSE(result_for(capped, hot, 1).failure_reason.empty());
}

TEST(PowerBudget, DriftAfterArrivalFailsAJobItLiftsAboveTheCap) {
  // Job 2 wants both GPUs, so it waits behind job 1. It arrives before the
  // onset: undrifted, its floor (~590 W) fits the 650 W cap. Drifted, both
  // its GPUs at the lowest clock draw ~710 W on an idle cluster, so once
  // job 1 ends it can never be admitted. Jobs 3 and 4 queue behind it and
  // are too long to backfill ahead of it.
  sc::job_trace trace;
  trace.jobs = {make_job(1, 0.0, 1, 200), make_job(2, 1.0, 2, 200), make_job(3, 2.0, 1, 200),
                make_job(4, 2.5, 1, 200)};
  sc::cluster_config cc;
  cc.n_nodes = 1;
  cc.gpus_per_node = 2;
  cc.facility_cap_w = 650.0;  // host 350 + 2 idle GPUs is ~430 W
  auto drifted = cc;
  drifted.drift.at_s = 3.0;  // after job 2 arrives, before job 1 ends
  drifted.drift.power_skew = 1.5;

  for (const bool fifo : {true, false}) {
    SCOPED_TRACE(fifo ? "fifo" : "backfill");
    const auto policy = [&] { return fifo ? sc::make_fifo() : sc::make_easy_backfill(); };
    // Without drift every job fits, job 2 included.
    sc::simulator plain{cc, policy()};
    EXPECT_EQ(plain.run(trace).completed, 4u);

    sc::simulator sim{drifted, policy()};
    const auto summary = sim.run(trace);
    EXPECT_EQ(result_for(sim, trace, 2).state, ss::job_state::failed);
    EXPECT_EQ(result_for(sim, trace, 2).failure_reason, "power cap below the job's minimum draw");
    for (const int id : {1, 3, 4})
      EXPECT_EQ(result_for(sim, trace, id).state, ss::job_state::completed);
    EXPECT_EQ(summary.failed, 1u);
    for (const auto& [t, w] : sim.power_samples())
      ASSERT_LE(w, drifted.facility_cap_w + 1e-6) << "at t=" << t;
  }
}

TEST(PowerBudget, CachedDrawEqualsFreshSum) {
  std::vector<ss::node_config> nodes(9);
  for (std::size_t i = 0; i < nodes.size(); ++i) nodes[i].name = "n" + std::to_string(i);
  // Nodes of other widths, one of them mixing parts.
  nodes[2].gpus = {"V100", "V100"};
  nodes[8].gpus = {"V100", "A100", "V100", "A100", "V100", "A100", "V100"};
  const ss::controller ctl{nodes};
  // The same nodes' draws, as the simulator hands them over: host watts and
  // each GPU's idle watts from its device spec.
  std::vector<double> host_w;
  std::vector<std::vector<double>> idle_w;
  for (const auto& node : nodes) {
    host_w.push_back(node.host_power_w);
    auto& idle = idle_w.emplace_back();
    for (const auto& gpu : node.gpus)
      idle.push_back(synergy::gpusim::make_device_spec(gpu).idle_power_w);
  }

  // The same sequence of draw changes and reads over either constructor.
  for (const bool from_controller : {true, false}) {
    SCOPED_TRACE(from_controller ? "controller" : "draws");
    // Idle draw is ~4.7 kW: binding.
    sc::power_budget budget = from_controller ? sc::power_budget{ctl, 5400.0}
                                              : sc::power_budget{host_w, idle_w, 5400.0};
    ASSERT_TRUE(budget.capped());

    // The draw as the test tracks it, summed hosts-then-GPUs node by node.
    auto gpu_w = idle_w;
    const auto fresh_sum = [&] {
      double total = 0.0;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        total += host_w[i];
        for (const double w : gpu_w[i]) total += w;
      }
      return total;
    };

    synergy::common::pcg32 rng{2024};
    // A random GPU of `node` goes busy at a random draw or back to idle.
    const auto change = [&](std::size_t node) {
      const auto gpu = rng.bounded(static_cast<std::uint32_t>(gpu_w[node].size()));
      if (rng.bounded(2) == 0) {
        const double w = rng.uniform(60.0, 300.0);
        budget.gpu_busy(node, gpu, w);
        gpu_w[node][gpu] = w;
      } else {
        budget.gpu_idle(node, gpu);
        gpu_w[node][gpu] = idle_w[node][gpu];
      }
    };
    EXPECT_EQ(budget.facility_power_w(), fresh_sum());
    for (int step = 0; step < 2000; ++step) {
      switch (rng.bounded(5)) {
        case 0: change(rng.bounded(static_cast<std::uint32_t>(nodes.size()))); break;
        case 1: budget.rebalance(); break;
        case 2: EXPECT_EQ(budget.headroom_w(), budget.cap_w() - fresh_sum()); break;
        case 3:
        case 4: {
          // Several nodes change before the next read, as in a gang
          // placement or a governor tick: in ascending node order, or
          // descending.
          const bool ascending = rng.bounded(2) == 0;
          for (std::size_t k = 0; k < nodes.size(); ++k) {
            const std::size_t node = ascending ? k : nodes.size() - 1 - k;
            for (auto n = rng.bounded(3); n > 0; --n) change(node);
          }
          break;
        }
      }
      ASSERT_EQ(budget.facility_power_w(), fresh_sum()) << "after step " << step;
    }
    EXPECT_GT(budget.rebalances(), 0u);
  }
}

// ----------------------------------------------------------- reproducibility ----

TEST(Simulator, SummaryCsvIsBitIdenticalAcrossRuns) {
  sc::trace_config tc;
  tc.n_jobs = 60;
  tc.seed = 123;
  const auto trace = sc::generate_trace(tc);

  sc::cluster_config cc;
  cc.n_nodes = 2;
  cc.gpus_per_node = 4;
  cc.facility_cap_w = 2500.0;

  const auto run_once = [&] {
    sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
    const auto summary = sim.run(trace);
    std::ostringstream os;
    summary.csv(os);
    return os.str();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("# seed=123 policy=energy"), std::string::npos);
}

TEST(Simulator, ChargesEnergyThroughTheGpusimModel) {
  sc::job_trace trace;
  trace.jobs = {make_job(1, 0.0, 2, 25, "black_scholes")};
  sc::cluster_config cc;
  cc.n_nodes = 1;
  cc.gpus_per_node = 2;
  sc::simulator sim{cc, sc::make_fifo()};
  sim.run(trace);
  const auto& r = result_for(sim, trace, 1);
  ASSERT_EQ(r.state, ss::job_state::completed);

  // Recompute the job's cost from the public gpusim model at the clocks it
  // ran at: the simulator must charge exactly this energy per GPU.
  const auto spec = synergy::gpusim::make_device_spec(cc.device);
  auto profile = sw::find("black_scholes").info.to_profile(1);
  profile.work_items = trace.jobs[0].work_items * trace.jobs[0].iterations;
  const auto cost = synergy::gpusim::dvfs_model{}.evaluate(
      spec, profile, {spec.default_config().memory, synergy::common::megahertz{r.core_mhz}});
  EXPECT_NEAR(r.gpu_energy_j, cost.energy.value * trace.jobs[0].n_gpus, 1e-9 * r.gpu_energy_j);
  EXPECT_NEAR(r.end_s - r.start_s, cost.time.value, 1e-12);
}

TEST(Simulator, RunRejectsRepeatedJobIds) {
  sc::cluster_config cc;
  cc.n_nodes = 1;
  cc.gpus_per_node = 2;
  sc::simulator sim{cc, sc::make_fifo()};
  sc::job_trace good;
  good.jobs = {make_job(1, 0.0, 1, 10), make_job(2, 1.0, 1, 10)};
  const auto first = sim.run(good);
  ASSERT_EQ(first.completed, 2u);

  // Checkpoints and reports name a job by its id, so two jobs may not
  // share one.
  sc::job_trace repeated;
  repeated.jobs = {make_job(1, 0.0, 1, 10), make_job(2, 1.0, 1, 10), make_job(1, 2.0, 1, 10)};
  EXPECT_THROW((void)sim.run(repeated), std::invalid_argument);
  // Rejected before the previous run's state was reset.
  ASSERT_EQ(sim.results().size(), 2u);
  EXPECT_EQ(result_for(sim, good, 2).state, ss::job_state::completed);
}

TEST(Simulator, RunRejectsRowsTheLoaderRejects) {
  // Uncapped EASY on 2 x 2 GPUs. A 0-GPU row can never start: it blocked
  // the queue head for good, and pricing its EASY reservation read out of
  // bounds, so the valid 1-GPU job behind it failed as never scheduled.
  sc::cluster_config cc;
  cc.n_nodes = 2;
  cc.gpus_per_node = 2;
  sc::simulator sim{cc, sc::make_easy_backfill()};
  sc::job_trace trace;
  trace.jobs = {make_job(1, 0.0, 4, 10), make_job(2, 0.1, 0, 10), make_job(3, 0.2, 1, 10)};
  EXPECT_THROW((void)sc::job_trace::from_csv(trace.to_csv()), std::invalid_argument);
  EXPECT_THROW((void)sim.run(trace), std::invalid_argument);

  const std::vector<void (*)(sc::traced_job&)> breaks = {
      [](sc::traced_job& j) { j.n_gpus = 0; },
      [](sc::traced_job& j) { j.iterations = 0; },
      [](sc::traced_job& j) { j.work_items = 0.0; },
      [](sc::traced_job& j) { j.submit_s = -1.0; },
      [](sc::traced_job& j) { j.deadline_s = j.submit_s / 2.0; },
      // An infinite submit time put the makespan at inf; infinite work
      // never completed, and the job fell out of every count.
      [](sc::traced_job& j) { j.submit_s = std::numeric_limits<double>::infinity(); },
      [](sc::traced_job& j) { j.work_items = std::numeric_limits<double>::infinity(); },
  };
  for (std::size_t k = 0; k < breaks.size(); ++k) {
    SCOPED_TRACE("row check " + std::to_string(k));
    auto bad = trace;
    bad.jobs[1].n_gpus = 1;
    breaks[k](bad.jobs[1]);
    EXPECT_THROW((void)sc::job_trace::from_csv(bad.to_csv()), std::invalid_argument);
    EXPECT_THROW((void)sim.run(bad), std::invalid_argument);
  }

  trace.jobs[1].n_gpus = 1;
  EXPECT_EQ(sim.run(trace).completed, 3u);
}

TEST(Simulator, ReplaysALoadedTraceIdentically) {
  sc::trace_config tc;
  tc.n_jobs = 40;
  tc.seed = 77;
  const auto trace = sc::generate_trace(tc);
  const auto reloaded = sc::job_trace::from_csv(trace.to_csv());

  sc::cluster_config cc;
  cc.n_nodes = 2;
  cc.gpus_per_node = 2;
  sc::simulator a{cc, sc::make_easy_backfill()};
  const auto sa = a.run(trace);
  sc::simulator b{cc, sc::make_easy_backfill()};
  const auto sb = b.run(reloaded);

  std::ostringstream oa, ob;
  sa.csv(oa);
  sb.csv(ob);
  EXPECT_EQ(oa.str(), ob.str());
}

// ------------------------------------------------------- trace robustness ----

TEST(JobTrace, LoaderAcceptsCrlfLineEndings) {
  // Traces written on (or piped through) Windows tooling arrive with CRLF;
  // replay must still be exact.
  const auto trace = sc::generate_trace({.n_jobs = 20});
  std::string csv = trace.to_csv();
  std::string crlf;
  for (const char c : csv) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  EXPECT_EQ(sc::job_trace::from_csv(crlf), trace);
}

TEST(JobTrace, LoaderAcceptsMissingTrailingNewline) {
  const auto trace = sc::generate_trace({.n_jobs = 20});
  std::string csv = trace.to_csv();
  ASSERT_EQ(csv.back(), '\n');
  csv.pop_back();
  EXPECT_EQ(sc::job_trace::from_csv(csv), trace);
}

TEST(JobTrace, RoundTripsQuotedNamesWithNewlinesAndCommas) {
  // csv_writer quotes names containing separators; the loader's record
  // splitter must not cut a quoted field at its embedded newline.
  sc::job_trace trace;
  trace.seed = 5;
  sc::traced_job j;
  j.id = 1;
  j.name = "weird \"job\",\nwith newline";
  j.submit_s = 0.25;
  j.n_gpus = 1;
  j.kernel = "mat_mul";
  j.work_items = 1 << 20;
  j.iterations = 2;
  j.target = "ES_50";
  trace.jobs.push_back(j);
  EXPECT_EQ(sc::job_trace::from_csv(trace.to_csv()), trace);
}

// --------------------------------------------------------- fault injection ----

namespace {

sc::run_summary run_with(const sc::cluster_config& cc, const sc::job_trace& trace) {
  sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  return sim.run(trace);
}

}  // namespace

TEST(Faults, FaultyRunCompletesEveryJobDeterministically) {
  sc::trace_config tc;
  tc.n_jobs = 60;
  tc.seed = 9;
  const auto trace = sc::generate_trace(tc);

  sc::cluster_config cc;
  cc.n_nodes = 4;
  cc.gpus_per_node = 4;
  cc.faults.seed = 11;
  cc.faults.clock_set_fail_rate = 0.1;
  cc.faults.power_read_dropout_rate = 0.1;
  cc.faults.device_lost_rate = 0.02;
  cc.faults.max_node_losses = 1;

  const auto run_once = [&] {
    sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
    const auto summary = sim.run(trace);
    std::ostringstream os;
    summary.csv(os);
    return std::make_pair(summary, os.str());
  };
  const auto [summary, csv_a] = run_once();
  const auto [summary2, csv_b] = run_once();

  // Same seed, same fault pattern, same schedule: bit-identical CSV.
  EXPECT_EQ(csv_a, csv_b);
  // Faults degrade, they never lose work.
  EXPECT_EQ(summary.completed, 60u);
  EXPECT_EQ(summary.failed, 0u);
  // The plan actually fired.
  EXPECT_GT(summary.clock_set_faults, 0u);
  EXPECT_GT(summary.degraded_samples, 0u);
}

TEST(Faults, ClockSetFaultEnergyIsBoundedByTunedAndDefaultRuns) {
  // Degradation contract: a clock-set fault makes that job run at default
  // clocks, so the faulty run's total GPU energy lies between the fault-free
  // tuned total and the fault-free default-clock total of the same trace.
  sc::trace_config tc;
  tc.n_jobs = 40;
  tc.seed = 21;
  tc.target_mix = {"MIN_ENERGY"};  // maximally different from default clocks
  const auto trace = sc::generate_trace(tc);

  sc::cluster_config cc;
  cc.n_nodes = 4;
  cc.gpus_per_node = 4;

  const auto tuned = run_with(cc, trace);

  sc::cluster_config cc_default = cc;
  cc_default.tag_nvgpufreq = false;  // every job at default clocks
  const auto dflt = run_with(cc_default, trace);
  ASSERT_GT(dflt.total_gpu_energy_j, tuned.total_gpu_energy_j);

  sc::cluster_config cc_faulty = cc;
  cc_faulty.faults.clock_set_fail_rate = 0.5;  // no dropouts/device loss: the
  const auto faulty = run_with(cc_faulty, trace);  // job set stays identical

  EXPECT_GT(faulty.clock_set_faults, 0u);
  EXPECT_GE(faulty.total_gpu_energy_j, tuned.total_gpu_energy_j * (1.0 - 1e-9));
  EXPECT_LE(faulty.total_gpu_energy_j, dflt.total_gpu_energy_j * (1.0 + 1e-9));
}

TEST(Faults, DeviceLostRequeuesJobsAndRemovesNode) {
  sc::trace_config tc;
  tc.n_jobs = 30;
  tc.seed = 3;
  tc.gpu_mix = {1, 2};  // jobs must still fit the surviving node
  const auto trace = sc::generate_trace(tc);

  sc::cluster_config cc;
  cc.n_nodes = 2;
  cc.gpus_per_node = 4;
  cc.faults.device_lost_rate = 1.0;  // first placement kills its node
  cc.faults.max_node_losses = 1;

  sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  const auto summary = sim.run(trace);

  EXPECT_EQ(summary.nodes_lost, 1u);
  EXPECT_EQ(sim.node_names().size(), 1u);
  EXPECT_GE(summary.requeues, 1u);
  EXPECT_GT(summary.wasted_gpu_energy_j, 0.0);
  // Requeued, not lost: every job still completes on the surviving node.
  EXPECT_EQ(summary.completed, 30u);
  EXPECT_EQ(summary.failed, 0u);
  // Per-job bookkeeping: at least one result records its requeue.
  bool saw_requeued = false;
  for (const auto& r : sim.results())
    if (r.requeues > 0) saw_requeued = true;
  EXPECT_TRUE(saw_requeued);
}

TEST(Faults, SimulatorIsReusableAfterLosingNodes) {
  // run() must rebuild the full inventory: a second replay on the same
  // simulator starts from all nodes again and reproduces a fresh run.
  const auto trace = sc::generate_trace({.n_jobs = 20, .gpu_mix = {1}, .seed = 5});

  sc::cluster_config cc;
  cc.n_nodes = 2;
  cc.gpus_per_node = 2;
  cc.faults.device_lost_rate = 1.0;
  cc.faults.max_node_losses = 1;

  sc::simulator sim{cc, sc::make_fifo()};
  const auto first = sim.run(trace);
  ASSERT_EQ(first.nodes_lost, 1u);
  const auto second = sim.run(trace);
  EXPECT_EQ(second.nodes_lost, 1u);  // same plan seed, same fate
  EXPECT_EQ(second.completed, 20u);

  std::ostringstream oa, ob;
  first.csv(oa);
  second.csv(ob);
  EXPECT_EQ(oa.str(), ob.str());
}

TEST(Faults, FaultFreeRunReportsZeroFaultCounters) {
  const auto trace = sc::generate_trace({.n_jobs = 15});
  sc::cluster_config cc;
  cc.n_nodes = 2;
  cc.gpus_per_node = 2;
  const auto summary = run_with(cc, trace);
  EXPECT_EQ(summary.clock_set_faults, 0u);
  EXPECT_EQ(summary.degraded_samples, 0u);
  EXPECT_EQ(summary.requeues, 0u);
  EXPECT_EQ(summary.nodes_lost, 0u);
  EXPECT_DOUBLE_EQ(summary.wasted_gpu_energy_j, 0.0);
}

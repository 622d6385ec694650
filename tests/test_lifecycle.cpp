// Tests for the model-lifecycle subsystem: the versioned registry's atomic
// champion swap (including a TSan-targeted concurrent reader/writer hammer),
// the sealed on-disk version store with retention and fail-closed damage
// handling, the retrain/shadow-evaluation/promotion/rollback state machine,
// and the two end-to-end recovery loops — a queue whose quarantined model
// tier is restored by a promoted challenger, and a cluster replay where the
// same happens mid-simulation, deterministically.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "synergy/cluster/simulator.hpp"
#include "synergy/lifecycle/lifecycle_manager.hpp"
#include "synergy/synergy.hpp"
#include "synergy/workloads/benchmark.hpp"

namespace gs = synergy::gpusim;
namespace lc = synergy::lifecycle;
namespace sc = synergy::cluster;
namespace sm = synergy::metrics;
namespace sw = synergy::workloads;

using synergy::common::megahertz;

namespace {

std::filesystem::path temp_dir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string{name} + "." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

synergy::trainer_options quick_options() {
  synergy::trainer_options opt;
  opt.n_microbenchmarks = 24;
  opt.freq_samples = 12;
  opt.repetitions = 1;
  return opt;
}

/// The clock-dependent power drift every recovery scenario injects: the
/// boards' frequency response changes (factor (f/f_default)^3), which a
/// scale-calibrated monitor can see and only a retrain can fix.
constexpr double drift_gamma = 3.0;

/// One stock V100 planner trained once per process (training dominates this
/// binary's runtime otherwise).
std::shared_ptr<const synergy::frequency_planner> stock_planner() {
  static const auto planner = [] {
    synergy::model_trainer trainer{gs::make_v100(), quick_options()};
    return std::make_shared<const synergy::frequency_planner>(gs::make_v100(),
                                                              trainer.train_default());
  }();
  return planner;
}

/// A planner trained on a board with the drifted frequency response.
std::shared_ptr<const synergy::frequency_planner> drifted_planner() {
  static const auto planner = [] {
    auto retrain = lc::make_drifted_retrainer(gs::make_v100(), quick_options(), 1.0, drift_gamma);
    return std::make_shared<const synergy::frequency_planner>(gs::make_v100(), retrain(1));
  }();
  return planner;
}

}  // namespace

// ----------------------------------------------------------- model registry ----

TEST(ModelRegistry, StartsEmptyAndRefusesRollback) {
  lc::model_registry reg;
  EXPECT_EQ(reg.generation(), 0u);
  EXPECT_EQ(reg.champion(), nullptr);
  EXPECT_EQ(reg.current_planner(), nullptr);
  EXPECT_FALSE(reg.rollback().has_value());
  EXPECT_EQ(reg.size(), 0u);
}

TEST(ModelRegistry, InstallRollbackKeepsIdsMonotonicAndParentsLinked) {
  lc::model_registry reg;
  const auto v1 = reg.install(lc::version_origin::initial, "V100", stock_planner());
  EXPECT_EQ(v1, 1u);
  EXPECT_EQ(reg.generation(), 1u);
  ASSERT_NE(reg.champion(), nullptr);
  EXPECT_EQ(reg.champion()->parent, 0u);

  // An initial-only registry has no parent to restore.
  EXPECT_FALSE(reg.rollback().has_value());

  const auto v2 =
      reg.install(lc::version_origin::retrain, "V100", drifted_planner(), 0.1, 0.4, "shadow win");
  EXPECT_EQ(v2, 2u);
  EXPECT_EQ(reg.champion()->parent, 1u);
  EXPECT_EQ(reg.current_planner(), drifted_planner());

  // Rollback installs a NEW version restoring the parent's content — ids
  // never reuse, the planner pointer is shared with the restored entry.
  const auto v3 = reg.rollback();
  ASSERT_TRUE(v3.has_value());
  EXPECT_EQ(*v3, 3u);
  EXPECT_EQ(reg.generation(), 3u);
  EXPECT_EQ(reg.champion()->origin, lc::version_origin::rollback);
  EXPECT_EQ(reg.champion()->parent, 1u);  // names the restored version
  EXPECT_EQ(reg.current_planner(), stock_planner());

  const auto history = reg.history();
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history[0].id, 1u);
  EXPECT_EQ(history[1].id, 2u);
  EXPECT_EQ(history[2].id, 3u);
  EXPECT_EQ(history[2].note, "restored v1");
}

TEST(ModelRegistry, ConcurrentReadersNeverSeeTornOrRegressingState) {
  // The TSan target: one writer storms install/rollback while readers spin
  // on the lock-free side. Readers assert the registry's two invariants —
  // observed version ids never decrease, and a bumped generation implies
  // the champion (and its planner) are visible and non-null.
  lc::model_registry reg;
  reg.install(lc::version_origin::initial, "V100", stock_planner());

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_id = 0;
      std::uint64_t last_gen = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto gen = reg.generation();
        const auto champ = reg.champion();
        if (gen < last_gen) ++violations;
        last_gen = gen;
        if (champ == nullptr || champ->planner == nullptr) {
          ++violations;
          continue;
        }
        if (champ->id < last_id) ++violations;
        last_id = champ->id;
        if (reg.current_planner() == nullptr) ++violations;
      }
    });
  }

  for (int i = 0; i < 300; ++i) {
    if (i % 3 == 2) {
      (void)reg.rollback();
    } else {
      reg.install(i % 2 ? lc::version_origin::retrain : lc::version_origin::imported, "V100",
                  i % 2 ? drifted_planner() : stock_planner());
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(reg.history().size(), 301u);
  // Writer side serialised: ids are exactly 1..N.
  const auto history = reg.history();
  for (std::size_t i = 0; i < history.size(); ++i) EXPECT_EQ(history[i].id, i + 1);
}

// ------------------------------------------------------------ version store ----

TEST(VersionStore, SaveHeadManifestRoundTrip) {
  const auto dir = temp_dir("synergy_version_store");
  lc::model_registry reg;
  reg.install(lc::version_origin::initial, "V100", stock_planner(), 0.0, 0.0, "first deploy");
  const lc::version_store store{dir};

  ASSERT_TRUE(store.save(*reg.champion()).ok());
  ASSERT_TRUE(store.set_head(1).ok());

  ASSERT_TRUE(store.head().has_value());
  EXPECT_EQ(*store.head(), 1u);
  const auto manifest = store.read_manifest(1);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->id, 1u);
  EXPECT_EQ(manifest->parent, 0u);
  EXPECT_EQ(manifest->origin, lc::version_origin::initial);
  EXPECT_EQ(manifest->device, "V100");
  EXPECT_EQ(manifest->note, "first deploy");

  // The persisted planner predicts what the live one predicts.
  const auto spec = gs::make_v100();
  const auto loaded = store.load_planner(1, spec);
  ASSERT_NE(loaded, nullptr);
  const auto& features = sw::find("mat_mul").info.features;
  const auto live = stock_planner()->predicted_energy(features, megahertz{1000});
  const auto persisted = loaded->predicted_energy(features, megahertz{1000});
  ASSERT_TRUE(live.has_value());
  ASSERT_TRUE(persisted.has_value());
  EXPECT_NEAR(*persisted, *live, 1e-9 * std::abs(*live));

  std::filesystem::remove_all(dir);
}

TEST(VersionStore, DamagedArtefactsFailClosed) {
  const auto dir = temp_dir("synergy_version_store_damage");
  lc::model_registry reg;
  reg.install(lc::version_origin::initial, "V100", stock_planner());
  const lc::version_store store{dir};
  ASSERT_TRUE(store.save(*reg.champion()).ok());
  ASSERT_TRUE(store.set_head(1).ok());

  // Flip one byte of the manifest: the manifest and the planner load both
  // refuse, HEAD (a separate sealed artefact) is untouched.
  const auto manifest_path = dir / "v1" / "manifest.envelope";
  {
    std::ifstream in{manifest_path, std::ios::binary};
    std::ostringstream ss;
    ss << in.rdbuf();
    auto text = ss.str();
    text[text.size() / 2] ^= 0x20;
    std::ofstream out{manifest_path, std::ios::binary};
    out << text;
  }
  EXPECT_FALSE(store.read_manifest(1).has_value());
  std::string detail;
  EXPECT_EQ(store.load_planner(1, gs::make_v100(), &detail), nullptr);
  EXPECT_FALSE(detail.empty());
  EXPECT_TRUE(store.head().has_value());

  // A damaged HEAD reads as absent, never as a wrong id.
  {
    std::ofstream out{dir / "HEAD", std::ios::binary};
    out << "not an envelope";
  }
  EXPECT_FALSE(store.head().has_value());

  std::filesystem::remove_all(dir);
}

TEST(VersionStore, GcBoundsRetentionButNeverCollectsHead) {
  const auto dir = temp_dir("synergy_version_store_gc");
  lc::model_registry reg;
  const lc::version_store store{dir};
  for (int i = 0; i < 5; ++i) {
    reg.install(i == 0 ? lc::version_origin::initial : lc::version_origin::retrain, "V100",
                stock_planner());
    ASSERT_TRUE(store.save(*reg.champion()).ok());
  }
  ASSERT_TRUE(store.set_head(2).ok());  // HEAD deliberately NOT the newest

  EXPECT_EQ(store.gc(2), 3u);
  const auto ids = store.version_ids();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 2u);  // the HEAD version survived although it was old
  EXPECT_EQ(ids[1], 5u);
  EXPECT_TRUE(store.read_manifest(2).has_value());

  std::filesystem::remove_all(dir);
}

// -------------------------------------------- manager: shadow eval + states ----

namespace {

/// Replay samples consistent with the drifted board: per-kernel energies
/// proportional to the drifted planner's predictions, at three distinct
/// clocks (the cross-clock ratios are what separate the contenders).
void feed_drifted_replay(lc::lifecycle_manager& manager, int per_kernel_scale_start = 0) {
  const auto& suite = sw::suite();
  int i = per_kernel_scale_start;
  for (const auto& b : suite) {
    const double scale = 1000.0 + 50.0 * (i++ % 7);
    for (const auto clock : {megahertz{900}, megahertz{1100}, megahertz{1300}}) {
      const auto predicted = drifted_planner()->predicted_energy(b.info.features, clock);
      if (!predicted) continue;
      manager.record({b.info.name, b.info.features, {megahertz{877}, clock}, scale * *predicted});
    }
  }
}

}  // namespace

TEST(LifecycleManager, PromotesChallengerThatExplainsTheDriftThenRollsBackOnProbation) {
  auto registry = std::make_shared<lc::model_registry>();
  registry->install(lc::version_origin::initial, "V100", stock_planner());

  lc::lifecycle_options opt;
  opt.retrain_delay_samples = 0;  // unit test: replay is already diverse
  opt.min_shadow_samples = 12;
  auto manager = std::make_shared<lc::lifecycle_manager>(
      registry, gs::make_v100(),
      lc::make_drifted_retrainer(gs::make_v100(), quick_options(), 1.0, drift_gamma), opt);

  feed_drifted_replay(*manager);
  ASSERT_GE(manager->replay_size(), opt.min_shadow_samples);

  // The drifted replay scores the drift-aware planner far better than the
  // stock champion.
  EXPECT_LT(manager->shadow_score(*drifted_planner()) + 0.05,
            manager->shadow_score(*stock_planner()));

  const auto action = manager->step(/*quarantined=*/true, /*now_s=*/10.0);
  EXPECT_EQ(action, lc::lifecycle_action::promoted);
  ASSERT_EQ(registry->size(), 2u);
  EXPECT_EQ(registry->champion()->origin, lc::version_origin::retrain);
  EXPECT_LT(registry->champion()->challenger_mape, registry->champion()->champion_mape);

  // Quarantine lifts (the promotion reset the monitor), then trips again
  // within the probation window: the promotion is rolled back, not retrained
  // over.
  EXPECT_EQ(manager->step(false, 11.0), lc::lifecycle_action::none);
  manager->record({"mat_mul", sw::find("mat_mul").info.features, {megahertz{877}, megahertz{1000}},
                   123.0});
  const auto second = manager->step(true, 12.0);
  EXPECT_EQ(second, lc::lifecycle_action::rolled_back);
  ASSERT_EQ(registry->size(), 3u);
  EXPECT_EQ(registry->champion()->origin, lc::version_origin::rollback);
  EXPECT_EQ(registry->current_planner(), stock_planner());

  const auto history = manager->history();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].action, lc::lifecycle_action::promoted);
  EXPECT_EQ(history[1].action, lc::lifecycle_action::rolled_back);
}

TEST(LifecycleManager, RejectsChallengerThatDoesNotBeatTheMargin) {
  auto registry = std::make_shared<lc::model_registry>();
  registry->install(lc::version_origin::initial, "V100", stock_planner());

  lc::lifecycle_options opt;
  opt.retrain_delay_samples = 0;
  opt.min_shadow_samples = 12;
  // The challenger is retrained on an UNdrifted board while the replay is
  // drifted: it shares the champion's wrong frequency response, so any score
  // difference between them is tree-quantisation jitter between two fits of
  // the same curve. A margin above that noise floor must reject it (the
  // genuine drift signal in the Promotes test is several times larger).
  opt.promote_margin = 0.15;
  auto manager = std::make_shared<lc::lifecycle_manager>(
      registry, gs::make_v100(),
      lc::make_drifted_retrainer(gs::make_v100(), quick_options(), 1.0, 0.0), opt);
  feed_drifted_replay(*manager);

  EXPECT_EQ(manager->step(true, 5.0), lc::lifecycle_action::rejected);
  EXPECT_EQ(registry->size(), 1u);  // champion unchanged
  ASSERT_EQ(manager->history().size(), 1u);
  EXPECT_EQ(manager->history()[0].action, lc::lifecycle_action::rejected);
}

TEST(LifecycleManager, IncompleteRetrainIsRejectedNotInstalled) {
  auto registry = std::make_shared<lc::model_registry>();
  registry->install(lc::version_origin::initial, "V100", stock_planner());
  lc::lifecycle_options opt;
  opt.retrain_delay_samples = 0;
  opt.min_shadow_samples = 12;
  auto manager = std::make_shared<lc::lifecycle_manager>(
      registry, gs::make_v100(), [](std::uint64_t) { return synergy::trained_models{}; }, opt);
  feed_drifted_replay(*manager);

  EXPECT_EQ(manager->step(true, 1.0), lc::lifecycle_action::rejected);
  EXPECT_EQ(registry->size(), 1u);
  EXPECT_EQ(manager->retrains(), 1u);
}

TEST(LifecycleManager, RespectsDelayBudgetAndEpisodeCap) {
  auto registry = std::make_shared<lc::model_registry>();
  registry->install(lc::version_origin::initial, "V100", stock_planner());
  lc::lifecycle_options opt;
  opt.retrain_delay_samples = 4;
  opt.min_shadow_samples = 1;
  opt.retrain_backlog_samples = 2;
  opt.max_retrains_per_quarantine = 2;
  std::size_t calls = 0;
  auto manager = std::make_shared<lc::lifecycle_manager>(
      registry, gs::make_v100(),
      [&calls](std::uint64_t) {
        ++calls;
        return synergy::trained_models{};  // always rejected: counts attempts
      },
      opt);

  const auto sample = [&] {
    manager->record({"k", sw::find("mat_mul").info.features, {megahertz{877}, megahertz{1000}},
                     10.0});
  };
  sample();
  // Trip: no attempt until 4 post-trip samples arrive.
  EXPECT_EQ(manager->step(true, 1.0), lc::lifecycle_action::none);
  for (int i = 0; i < 3; ++i) {
    sample();
    EXPECT_EQ(manager->step(true, 2.0 + i), lc::lifecycle_action::none);
  }
  sample();
  EXPECT_EQ(manager->step(true, 5.0), lc::lifecycle_action::rejected);  // attempt 1
  EXPECT_EQ(calls, 1u);
  // Backlog gate: a second attempt needs 2 more samples.
  EXPECT_EQ(manager->step(true, 6.0), lc::lifecycle_action::none);
  sample();
  sample();
  EXPECT_EQ(manager->step(true, 7.0), lc::lifecycle_action::rejected);  // attempt 2
  EXPECT_EQ(calls, 2u);
  // Episode budget exhausted: more samples no longer trigger attempts.
  for (int i = 0; i < 8; ++i) sample();
  EXPECT_EQ(manager->step(true, 8.0), lc::lifecycle_action::none);
  EXPECT_EQ(calls, 2u);
  // A lifted quarantine closes the episode; the next trip gets a fresh
  // budget (and a fresh post-trip delay: the trip pins samples_at_trip).
  EXPECT_EQ(manager->step(false, 9.0), lc::lifecycle_action::none);
  EXPECT_EQ(manager->step(true, 10.0), lc::lifecycle_action::none);  // fresh trip
  for (int i = 0; i < 4; ++i) sample();
  EXPECT_EQ(manager->step(true, 11.0), lc::lifecycle_action::rejected);
  EXPECT_EQ(calls, 3u);
}

// ------------------------------------------- queue end-to-end recovery loop ----

namespace {

struct queue_recovery_outcome {
  std::vector<lc::lifecycle_event> events;
  std::vector<lc::model_version> versions;
  std::size_t planner_refreshes{0};
  std::size_t model_plans_final{0};
  bool quarantined_at_end{false};
  double total_energy{0.0};
};

/// The acceptance scenario, queue edition: healthy passes calibrate, the
/// board's frequency response drifts, the monitor quarantines, the manager
/// retrains on the live (drifted) board and promotes; the queue follows the
/// registry and resumes model-tier planning.
queue_recovery_outcome run_queue_recovery() {
  simsycl::device dev{gs::make_v100()};
  auto ctx = std::make_shared<synergy::context>(std::vector<simsycl::device>{dev});
  synergy::queue q{dev, ctx};

  auto registry = std::make_shared<lc::model_registry>();
  registry->install(lc::version_origin::initial, "V100", stock_planner());
  lc::lifecycle_options opt;
  opt.min_shadow_samples = 24;
  opt.retrain_delay_samples = 16;
  auto manager = std::make_shared<lc::lifecycle_manager>(
      registry, gs::make_v100(),
      lc::make_board_retrainer(dev.board(), gs::make_v100(), quick_options()), opt);

  synergy::drift_options drift;
  drift.window = 32;
  drift.min_samples = 8;
  drift.threshold = 0.25;
  // No tuning-table fallback: quarantined launches run at the device default
  // clock, far from the model tier's picks. The wide clock separation is what
  // the shadow evaluation discriminates on — the forest-based energy models
  // quantise frequency, so nearby clocks land in the same leaf and carry no
  // cross-clock signal.
  lc::attach_queue(q, registry, manager, drift);
  q.set_target(sm::ES_50);

  for (int pass = 0; pass < 2; ++pass)
    for (const auto& b : sw::suite()) b.run(q);

  dev.board()->set_power_skew(1.0, drift_gamma);
  for (int pass = 0; pass < 4; ++pass)
    for (const auto& b : sw::suite()) b.run(q);

  queue_recovery_outcome out;
  out.events = manager->history();
  out.versions = registry->history();
  out.planner_refreshes = q.planner_refreshes();
  out.model_plans_final = q.guard() ? q.guard()->model_plans() : 0;
  out.quarantined_at_end = q.model_quarantined();
  for (const auto& s : q.samples()) out.total_energy += s.energy_j;
  return out;
}

}  // namespace

TEST(QueueLifecycle, QuarantineRetrainPromoteRestoresModelTierDeterministically) {
  const auto first = run_queue_recovery();

  // The loop closed: at least one promotion, the queue refreshed its planner
  // from the registry, and the model tier is live again at the end.
  ASSERT_FALSE(first.events.empty());
  bool promoted = false;
  for (const auto& e : first.events) promoted |= e.action == lc::lifecycle_action::promoted;
  EXPECT_TRUE(promoted);
  EXPECT_GE(first.versions.size(), 2u);
  EXPECT_GE(first.planner_refreshes, 1u);
  EXPECT_FALSE(first.quarantined_at_end);
  EXPECT_GT(first.model_plans_final, 0u);

  // Determinism: the identical scenario reproduces the identical lifecycle
  // history — same decisions, same versions, same virtual times, same energy.
  const auto second = run_queue_recovery();
  ASSERT_EQ(second.events.size(), first.events.size());
  for (std::size_t i = 0; i < first.events.size(); ++i) {
    EXPECT_EQ(second.events[i].action, first.events[i].action);
    EXPECT_EQ(second.events[i].version, first.events[i].version);
    EXPECT_DOUBLE_EQ(second.events[i].time_s, first.events[i].time_s);
    EXPECT_DOUBLE_EQ(second.events[i].challenger_mape, first.events[i].challenger_mape);
    EXPECT_DOUBLE_EQ(second.events[i].champion_mape, first.events[i].champion_mape);
  }
  ASSERT_EQ(second.versions.size(), first.versions.size());
  for (std::size_t i = 0; i < first.versions.size(); ++i) {
    EXPECT_EQ(second.versions[i].id, first.versions[i].id);
    EXPECT_EQ(second.versions[i].origin, first.versions[i].origin);
  }
  EXPECT_DOUBLE_EQ(second.total_energy, first.total_energy);
}

// ----------------------------------------- cluster mid-run recovery loop ----

namespace {

struct cluster_recovery_outcome {
  sc::run_summary summary;
  std::string csv;
  std::vector<lc::lifecycle_event> events;
  std::size_t model_plans{0};
};

cluster_recovery_outcome run_cluster_recovery(const std::filesystem::path& model_dir) {
  sc::cluster_config cluster;
  cluster.n_nodes = 4;
  cluster.gpus_per_node = 4;
  cluster.drift.at_s = 150.0;
  cluster.drift.power_skew = 1.0;
  cluster.drift.freq_exponent = drift_gamma;

  auto guarded = sc::make_guarded_suite_planner("V100", model_dir);
  EXPECT_TRUE(guarded.model_loaded);
  sc::simulator sim{cluster, sc::make_policy("energy", guarded.plan, std::nullopt)};

  auto registry = std::make_shared<lc::model_registry>();
  registry->install(lc::version_origin::initial, "V100", guarded.guard->planner());
  auto manager = std::make_shared<lc::lifecycle_manager>(
      registry, gs::make_v100(),
      lc::make_drifted_retrainer(gs::make_v100(), quick_options(), cluster.drift.power_skew,
                                 cluster.drift.freq_exponent));
  sim.attach_recovery(guarded.guard, manager);

  sc::trace_config gen;
  gen.n_jobs = 400;
  gen.seed = 7;
  const auto trace = sc::generate_trace(gen);

  cluster_recovery_outcome out;
  out.summary = sim.run(trace);
  std::ostringstream csv;
  out.summary.csv(csv);
  out.csv = csv.str();
  out.events = manager->history();
  out.model_plans = guarded.guard->model_plans();
  return out;
}

}  // namespace

TEST(ClusterLifecycle, MidRunPromotionRecoversQuarantinedFleetDeterministically) {
  const auto dir = temp_dir("synergy_cluster_lifecycle");
  {
    synergy::model_trainer trainer{gs::make_v100(), quick_options()};
    synergy::model_store store{dir};
    ASSERT_TRUE(store.save("V100", trainer.train_default()).ok());
  }

  const auto first = run_cluster_recovery(dir);
  EXPECT_EQ(first.summary.completed, 400u);
  EXPECT_EQ(first.summary.quarantines, 1u);
  EXPECT_EQ(first.summary.promotions, 1u);
  EXPECT_EQ(first.summary.rollbacks, 0u);
  // The promoted challenger restored the model tier mid-simulation: plans
  // after the promotion resolve on the model tier again.
  EXPECT_GT(first.model_plans, 0u);
  bool promoted = false;
  for (const auto& e : first.events) promoted |= e.action == lc::lifecycle_action::promoted;
  EXPECT_TRUE(promoted);

  // Byte-identical replay, lifecycle decisions included.
  const auto second = run_cluster_recovery(dir);
  EXPECT_EQ(second.csv, first.csv);
  ASSERT_EQ(second.events.size(), first.events.size());
  for (std::size_t i = 0; i < first.events.size(); ++i) {
    EXPECT_EQ(second.events[i].action, first.events[i].action);
    EXPECT_DOUBLE_EQ(second.events[i].time_s, first.events[i].time_s);
  }

  std::filesystem::remove_all(dir);
}

// A checkpoint carries no lifecycle state, so the simulator refuses a
// checkpointed run with a recovery loop whichever of the two is wired
// second, with the one error.
TEST(ClusterLifecycle, CheckpointingAndRecoveryLoopExcludeEachOtherInEitherOrder) {
  const auto guard = std::make_shared<synergy::guarded_planner>(gs::make_v100());
  const auto manager = [] {
    return std::make_shared<lc::lifecycle_manager>(
        std::make_shared<lc::model_registry>(), gs::make_v100(),
        [](std::uint64_t) { return synergy::trained_models{}; });
  };
  const auto rejection = [](const auto& wire) -> std::string {
    try {
      wire();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };

  sc::simulator checkpointed{sc::cluster_config{}, sc::make_fifo()};
  checkpointed.set_checkpointing({});
  const auto recovery_second =
      rejection([&] { checkpointed.attach_recovery(guard, manager()); });

  sc::simulator recovering{sc::cluster_config{}, sc::make_fifo()};
  recovering.attach_recovery(guard, manager());
  const auto checkpointing_second = rejection([&] { recovering.set_checkpointing({}); });

  EXPECT_NE(checkpointing_second.find("lifecycle recovery loop"), std::string::npos)
      << checkpointing_second;
  EXPECT_EQ(recovery_second, checkpointing_second);
}

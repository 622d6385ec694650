// Tests for the plan service: the shared concurrent front end over the
// degradation chain. Covers byte-identical parity between the serviced,
// batched, and direct chain paths; generation-keyed cache invalidation
// (install, quarantine transitions, explicit epoch bumps); quarantine
// flow-through vs caching; and the multi-threaded hammers that pin down the
// thread-safety fixes — atomic tier counters, atomic probe cadence, and
// cache coherence under concurrent plan/plan_batch/install/invalidate.
//
// The hammer cases are the TSan regression surface for this subsystem: the
// CI thread-sanitize job runs them explicitly (see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "synergy/common/rng.hpp"
#include "synergy/obs/snapshot.hpp"
#include "synergy/plan_service.hpp"
#include "synergy/synergy.hpp"
#include "synergy/telemetry/telemetry.hpp"
#include "synergy/workloads/benchmark.hpp"

namespace sm = synergy::metrics;
namespace gs = synergy::gpusim;
namespace sw = synergy::workloads;
namespace ml = synergy::ml;

using synergy::guarded_planner;
using synergy::plan_decision;
using synergy::plan_request;
using synergy::plan_service;
using synergy::plan_service_options;
using synergy::common::megahertz;
using synergy::common::pcg32;

namespace {

/// A fitted regressor with a fixed finite prediction: lets the model tier
/// answer (constant argmin resolves to the first clock deterministically)
/// without paying for training in every test case.
struct constant_regressor final : ml::regressor {
  double value;
  explicit constant_regressor(double v) : value(v) {}
  void fit(const ml::matrix&, std::span<const double>) override {}
  [[nodiscard]] double predict_one(std::span<const double>) const override { return value; }
  [[nodiscard]] std::string name() const override { return "constant"; }
  [[nodiscard]] bool fitted() const override { return true; }
  [[nodiscard]] std::string serialize() const override { return "constant v1\n"; }
};

synergy::trained_models constant_models(double value) {
  synergy::trained_models m;
  m.time = std::make_unique<constant_regressor>(value);
  m.energy = std::make_unique<constant_regressor>(value);
  m.edp = std::make_unique<constant_regressor>(value);
  m.ed2p = std::make_unique<constant_regressor>(value);
  return m;
}

std::shared_ptr<const synergy::frequency_planner> constant_planner(const gs::device_spec& spec,
                                                                   double value = 1.0) {
  return std::make_shared<const synergy::frequency_planner>(spec, constant_models(value));
}

/// A chain with all three tiers: constant model, one-kernel table, defaults.
std::shared_ptr<guarded_planner> make_chain(const gs::device_spec& spec,
                                            synergy::drift_options drift = {}) {
  auto table = std::make_shared<synergy::tuning_table>();
  table->set_device_key(spec.name);
  const megahertz supported = spec.core_clocks[spec.core_clocks.size() / 2];
  table->put("mat_mul", sm::ES_50, {spec.memory_clock, supported});
  table->put("mat_mul", sm::MIN_EDP, {spec.memory_clock, supported});
  return std::make_shared<guarded_planner>(spec, constant_planner(spec), table, drift);
}

void expect_same_decision(const plan_decision& a, const plan_decision& b,
                          const std::string& what) {
  EXPECT_EQ(a.config.core.value, b.config.core.value) << what;
  EXPECT_EQ(a.config.memory.value, b.config.memory.value) << what;
  EXPECT_EQ(a.tier, b.tier) << what;
  EXPECT_EQ(a.ood, b.ood) << what;
  EXPECT_EQ(a.clamped, b.clamped) << what;
  EXPECT_EQ(a.probe, b.probe) << what;
  EXPECT_EQ(a.reason, b.reason) << what;
}

/// Deterministic request pool spanning kernels, targets, and all tiers
/// (known kernels hit the model tier; "absent" falls to default clocks).
std::vector<plan_request> request_pool() {
  std::vector<plan_request> pool;
  const auto& features = sw::find("mat_mul").info.features;
  for (const auto* kernel : {"mat_mul", "vec_add", "reduction", "absent_kernel"})
    for (const auto& target : {sm::ES_50, sm::MIN_EDP, sm::MIN_ED2P, sm::ES_25})
      pool.push_back({kernel, features, target});
  return pool;
}

/// Drive a chain with a model tier into quarantine: calibrate each kernel's
/// drift scale, then feed measurements wildly off the calibrated ratio.
void trip_quarantine(plan_service& service) {
  const auto& features = sw::find("mat_mul").info.features;
  const megahertz clock = gs::make_v100().default_core_clock();
  service.observe("mat_mul", features, clock, 100.0);  // calibrates scale
  for (int i = 0; i < 16 && !service.quarantined(); ++i)
    service.observe("mat_mul", features, clock, 1000.0);
  ASSERT_TRUE(service.quarantined());
}

}  // namespace

// ------------------------------------------------------------------ parity ----

TEST(PlanService, SingleMatchesDirectChainByteForByte) {
  const auto spec = gs::make_v100();
  auto serviced_chain = make_chain(spec);
  auto direct_chain = make_chain(spec);
  plan_service service{serviced_chain};

  for (const auto& req : request_pool()) {
    const auto direct = direct_chain->plan(req.kernel, req.features, req.target);
    const auto via = service.plan(req.kernel, req.features, req.target);
    expect_same_decision(via.decision, direct,
                         req.kernel + "/" + req.target.to_string());
    EXPECT_FALSE(via.cache_hit);
  }
  // Identical traffic produced identical tier accounting on both chains.
  EXPECT_EQ(serviced_chain->model_plans(), direct_chain->model_plans());
  EXPECT_EQ(serviced_chain->default_fallbacks(), direct_chain->default_fallbacks());
}

TEST(PlanService, BatchMatchesSingleByteForByte) {
  const auto spec = gs::make_v100();
  plan_service batched{make_chain(spec)};
  plan_service single{make_chain(spec)};

  const auto pool = request_pool();
  const auto results = batched.plan_batch(pool);
  ASSERT_EQ(results.size(), pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const auto one = single.plan(pool[i].kernel, pool[i].features, pool[i].target);
    expect_same_decision(results[i].decision, one.decision,
                         pool[i].kernel + "/" + pool[i].target.to_string());
  }
}

#if SYNERGY_TELEMETRY_ENABLED
// Regression: the batch path observed a wall-clock histogram of its own that
// was missing from the exporter's volatile list, so host timings leaked into
// the deterministic JSON and Prometheus renderings. Single and batched plans
// now feed the one volatile latency histogram.
TEST(PlanService, WallClockLatencyStaysOutOfDefaultSnapshots) {
  plan_service service{make_chain(gs::make_v100())};
  const auto pool = request_pool();
  (void)service.plan(pool.front().kernel, pool.front().features, pool.front().target);
  (void)service.plan_batch(pool);

  const auto& ledger = synergy::obs::energy_ledger::instance();
  EXPECT_EQ(synergy::obs::render_json(ledger, nullptr).find("latency_us"), std::string::npos);
  EXPECT_EQ(synergy::obs::render_prometheus(ledger).find("latency_us"), std::string::npos);
  // The latency is still recorded: clearing the volatile list brings it back.
  synergy::obs::snapshot_options all;
  all.volatile_metrics.clear();
  EXPECT_NE(synergy::obs::render_json(ledger, nullptr, all).find("planner.plan_latency_us"),
            std::string::npos);
}
#endif

TEST(PlanService, EmptyBatchIsANoOp) {
  plan_service service{make_chain(gs::make_v100())};
  EXPECT_TRUE(service.plan_batch({}).empty());
  EXPECT_EQ(service.cache_stats().misses, 0u);
}

// ------------------------------------------------------------------- cache ----

TEST(PlanService, RepeatRequestsServeFromCache) {
  const auto spec = gs::make_v100();
  auto chain = make_chain(spec);
  plan_service service{chain};
  const auto& features = sw::find("mat_mul").info.features;

  const auto first = service.plan("mat_mul", features, sm::ES_50);
  EXPECT_FALSE(first.cache_hit);
  const auto second = service.plan("mat_mul", features, sm::ES_50);
  EXPECT_TRUE(second.cache_hit);
  expect_same_decision(second.decision, first.decision, "cached replay");
  // The chain resolved exactly once; the hit never re-entered it.
  EXPECT_EQ(chain->model_plans(), 1u);
  EXPECT_EQ(service.cache_stats().hits, 1u);
  EXPECT_EQ(service.cache_stats().misses, 1u);
}

TEST(PlanService, BatchDedupesIdenticalRequestsWithinTheBatch) {
  const auto spec = gs::make_v100();
  auto chain = make_chain(spec);
  plan_service service{chain};
  const auto& features = sw::find("mat_mul").info.features;

  std::vector<plan_request> reqs(8, plan_request{"mat_mul", features, sm::ES_50});
  const auto results = service.plan_batch(reqs);
  ASSERT_EQ(results.size(), 8u);
  for (const auto& r : results)
    expect_same_decision(r.decision, results.front().decision, "deduped twin");
  EXPECT_EQ(chain->model_plans(), 1u);  // one chain resolution for all eight
  EXPECT_EQ(service.cache_stats().deduped, 7u);
  EXPECT_EQ(service.cache_stats().misses, 1u);
}

TEST(PlanService, InstallBumpsGenerationAndInvalidatesCache) {
  const auto spec = gs::make_v100();
  plan_service service{make_chain(spec)};
  const auto& features = sw::find("mat_mul").info.features;

  (void)service.plan("mat_mul", features, sm::ES_50);
  ASSERT_TRUE(service.plan("mat_mul", features, sm::ES_50).cache_hit);

  const auto gen_before = service.generation();
  service.install(constant_planner(spec, 2.0));
  EXPECT_GT(service.generation(), gen_before);
  // The cached decision from the previous model generation is gone.
  EXPECT_FALSE(service.plan("mat_mul", features, sm::ES_50).cache_hit);
}

TEST(PlanService, DirectGuardInstallStillInvalidatesServiceCache) {
  // Callers that hold the shared guard (the cluster's lifecycle promotion
  // path) install() on it directly, bypassing the service. The chain's own
  // generation counter carries the bump, so the service cache still drops
  // its stale model-tier decisions.
  const auto spec = gs::make_v100();
  auto chain = make_chain(spec);
  plan_service service{chain};
  const auto& features = sw::find("mat_mul").info.features;

  (void)service.plan("mat_mul", features, sm::ES_50);
  ASSERT_TRUE(service.plan("mat_mul", features, sm::ES_50).cache_hit);
  chain->install(constant_planner(spec, 3.0));
  EXPECT_FALSE(service.plan("mat_mul", features, sm::ES_50).cache_hit);
}

TEST(PlanService, InvalidateDropsEveryCachedDecision) {
  const auto spec = gs::make_v100();
  plan_service service{make_chain(spec)};
  const auto pool = request_pool();
  (void)service.plan_batch(pool);
  service.invalidate();
  for (const auto& req : pool)
    EXPECT_FALSE(service.plan(req.kernel, req.features, req.target).cache_hit);
}

// Regression: import_cache merged the imported entries into whatever the
// service had cached since the export, and a shard stamped at a newer
// generation than the restored chain's dropped them.
TEST(PlanService, ImportCacheReplacesTheWholeCache) {
  const auto spec = gs::make_v100();
  auto chain = make_chain(spec);
  plan_service_options one_shard;  // every key shares the one shard's generation
  one_shard.shards = 1;
  plan_service service{chain, one_shard};
  const auto& features = sw::find("mat_mul").info.features;
  const auto expect_cache = [&](const std::vector<synergy::cached_plan>& want) {
    const auto got = service.export_cache();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].kernel, want[i].kernel);
      EXPECT_EQ(got[i].target, want[i].target);
      expect_same_decision(got[i].decision, want[i].decision, want[i].kernel);
    }
  };

  (void)service.plan("mat_mul", features, sm::ES_50);
  const auto exported = service.export_cache();
  ASSERT_EQ(exported.size(), 1u);
  const auto chain_state = chain->export_state();

  (void)service.plan("vec_add", features, sm::ES_50);
  (void)service.plan("reduction", features, sm::ES_50);
  ASSERT_EQ(service.export_cache().size(), 3u);
  service.import_cache(exported);
  expect_cache(exported);

  // A restore that moves the chain generation back.
  chain->install(constant_planner(spec, 2.0));
  (void)service.plan("vec_add", features, sm::ES_50);
  ASSERT_TRUE(chain->import_state(chain_state));
  service.import_cache(exported);
  expect_cache(exported);
}

// -------------------------------------------------------------- quarantine ----

TEST(PlanService, QuarantineOnsetInvalidatesCachedModelDecisions) {
  const auto spec = gs::make_v100();
  synergy::drift_options drift;
  drift.window = 8;
  drift.min_samples = 4;
  plan_service service{make_chain(spec, drift)};
  const auto& features = sw::find("mat_mul").info.features;

  const auto healthy = service.plan("mat_mul", features, sm::ES_50);
  ASSERT_EQ(healthy.decision.tier, synergy::plan_tier::model);
  ASSERT_TRUE(service.plan("mat_mul", features, sm::ES_50).cache_hit);

  trip_quarantine(service);
  // The cached model-tier decision must not survive the onset: the next
  // resolution re-enters the chain and lands on the table tier.
  const auto after = service.plan("mat_mul", features, sm::ES_50);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.decision.tier, synergy::plan_tier::tuning_table);

  // Lifting the quarantine restores the model tier (fresh generation again).
  service.reset_quarantine();
  const auto lifted = service.plan("mat_mul", features, sm::ES_50);
  EXPECT_FALSE(lifted.cache_hit);
  EXPECT_EQ(lifted.decision.tier, synergy::plan_tier::model);
}

TEST(PlanService, QuarantinedDecisionsFlowThroughWhenCachingIsOff) {
  // cache_quarantined=false is the cluster-admission configuration: every
  // placement resolves through the chain so the probe cadence advances once
  // per admission, and deduplication never folds probe slots together.
  const auto spec = gs::make_v100();
  synergy::drift_options drift;
  drift.window = 8;
  drift.min_samples = 4;
  plan_service_options opts;
  opts.cache_quarantined = false;
  auto chain = make_chain(spec, drift);
  plan_service service{chain, opts};
  chain->set_quarantine_probe_every(3);
  trip_quarantine(service);

  const auto& features = sw::find("mat_mul").info.features;
  std::size_t probes = 0;
  for (int i = 0; i < 9; ++i) {
    const auto sp = service.plan("mat_mul", features, sm::ES_50);
    EXPECT_FALSE(sp.cache_hit) << "quarantined decisions must not be cached";
    probes += sp.decision.probe ? 1u : 0u;
  }
  EXPECT_EQ(probes, 3u);  // exactly every 3rd quarantined plan probes
  EXPECT_EQ(chain->quarantine_probes(), 3u);

  // Batches flow through un-deduplicated for the same reason.
  std::vector<plan_request> reqs(6, plan_request{"mat_mul", features, sm::ES_50});
  const auto batch = service.plan_batch(reqs);
  EXPECT_EQ(service.cache_stats().deduped, 0u);
  std::size_t batch_probes = 0;
  for (const auto& r : batch) batch_probes += r.decision.probe ? 1u : 0u;
  EXPECT_EQ(batch_probes, 2u);
  EXPECT_EQ(chain->quarantine_probes(), 5u);
}

TEST(PlanService, QuarantinedDecisionsAreCachedWhenConfigured) {
  // The queue's historical behaviour: its per-submission memo pinned every
  // decision, probes included, so the default service configuration does too.
  const auto spec = gs::make_v100();
  synergy::drift_options drift;
  drift.window = 8;
  drift.min_samples = 4;
  plan_service service{make_chain(spec, drift)};
  trip_quarantine(service);

  const auto& features = sw::find("mat_mul").info.features;
  (void)service.plan("mat_mul", features, sm::ES_50);
  EXPECT_TRUE(service.plan("mat_mul", features, sm::ES_50).cache_hit);
}

// ----------------------------------------------------------------- hammers ----

// Satellite regression: the chain's tier counters were plain size_t and lost
// increments (and raced under TSan) once plans were served concurrently.
// Exact totals across threads prove the counters are atomic.
TEST(PlanServiceHammer, ChainCounterTotalsAreExactUnderConcurrency) {
  const auto spec = gs::make_v100();
  guarded_planner bare{spec};  // no tiers: every plan is a default fallback
  const auto& features = sw::find("mat_mul").info.features;

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPlansPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < kPlansPerThread; ++i)
        (void)bare.plan("mat_mul", features, sm::ES_50);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(bare.default_fallbacks(), kThreads * kPlansPerThread);
}

// Satellite regression: the quarantine probe cadence was read-modify-write on
// a plain counter, so two racing planners could both skip (or both take) a
// probe slot. The atomic fetch-add cadence makes the probe count exact:
// every Nth quarantined plan probes, no matter the interleaving.
TEST(PlanServiceHammer, QuarantineProbeCadenceIsExactUnderConcurrency) {
  const auto spec = gs::make_v100();
  synergy::drift_options drift;
  drift.window = 8;
  drift.min_samples = 4;
  auto chain = make_chain(spec, drift);
  plan_service_options opts;
  opts.cache_quarantined = false;
  plan_service service{chain, opts};
  chain->set_quarantine_probe_every(5);
  trip_quarantine(service);

  const auto& features = sw::find("mat_mul").info.features;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPlansPerThread = 1500;  // total divisible by 5
  std::atomic<std::size_t> observed_probes{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      std::size_t mine = 0;
      for (std::size_t i = 0; i < kPlansPerThread; ++i)
        mine += service.plan("mat_mul", features, sm::ES_50).decision.probe ? 1u : 0u;
      observed_probes.fetch_add(mine, std::memory_order_relaxed);
    });
  for (auto& th : threads) th.join();

  const std::size_t total = kThreads * kPlansPerThread;
  EXPECT_EQ(chain->quarantine_rejections(), total);
  EXPECT_EQ(chain->quarantine_probes(), total / 5);
  EXPECT_EQ(observed_probes.load(), total / 5);
}

// The tentpole hammer: concurrent plan(), plan_batch(), install() (same
// model, so every decision stays canonical), observe() with drift-free
// samples, and invalidate(). Every decision handed out — cached, batched,
// deduped, or freshly resolved — must equal the canonical chain decision for
// its request, and the hit/miss/dedup accounting must balance exactly.
TEST(PlanServiceHammer, ConcurrentPlanBatchInstallInvalidateStaysCoherent) {
  const auto spec = gs::make_v100();
  plan_service service{make_chain(spec)};

  // Canonical decisions from an identical, untouched chain.
  auto reference = make_chain(spec);
  const auto pool = request_pool();
  std::vector<plan_decision> canonical;
  canonical.reserve(pool.size());
  for (const auto& req : pool)
    canonical.push_back(reference->plan(req.kernel, req.features, req.target));

  constexpr std::size_t kPlanThreads = 4;
  constexpr std::size_t kBatchThreads = 2;
  constexpr std::size_t kIterations = 400;
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> requests_issued{0};

  const auto check = [&](const plan_decision& got, std::size_t pool_index) {
    const auto& want = canonical[pool_index];
    const bool same = got.config.core.value == want.config.core.value &&
                      got.config.memory.value == want.config.memory.value &&
                      got.tier == want.tier && got.reason == want.reason;
    if (!same) mismatches.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kPlanThreads; ++t)
    threads.emplace_back([&, t] {
      pcg32 rng{static_cast<std::uint64_t>(0x91a7 * (t + 1))};
      for (std::size_t i = 0; i < kIterations; ++i) {
        const auto idx = rng.bounded(static_cast<std::uint32_t>(pool.size()));
        const auto sp = service.plan(pool[idx].kernel, pool[idx].features, pool[idx].target);
        check(sp.decision, idx);
        requests_issued.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::size_t t = 0; t < kBatchThreads; ++t)
    threads.emplace_back([&, t] {
      pcg32 rng{static_cast<std::uint64_t>(0xba7c4 * (t + 1))};
      for (std::size_t i = 0; i < kIterations / 4; ++i) {
        std::vector<plan_request> reqs;
        std::vector<std::size_t> idxs;
        for (int k = 0; k < 12; ++k) {
          const auto idx = rng.bounded(static_cast<std::uint32_t>(pool.size()));
          idxs.push_back(idx);
          reqs.push_back(pool[idx]);
        }
        const auto results = service.plan_batch(reqs);
        for (std::size_t k = 0; k < results.size(); ++k) check(results[k].decision, idxs[k]);
        requests_issued.fetch_add(reqs.size(), std::memory_order_relaxed);
      }
    });
  threads.emplace_back([&] {  // writer: installs + epoch bumps + observations
    const auto& features = sw::find("mat_mul").info.features;
    const megahertz clock = spec.default_core_clock();
    for (std::size_t i = 0; i < kIterations / 8; ++i) {
      service.install(constant_planner(spec));  // same model: decisions stay canonical
      service.invalidate();
      service.observe("mat_mul", features, clock, 100.0);  // drift-free ratio
    }
  });
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_FALSE(service.quarantined());
  // Conservation: every issued request was a hit, a chain miss, or deduped.
  const auto stats = service.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.deduped, requests_issued.load());

  // Determinism after the dust settles: the service still answers with the
  // canonical decision for every request, from a coherent cache.
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const auto sp = service.plan(pool[i].kernel, pool[i].features, pool[i].target);
    expect_same_decision(sp.decision, canonical[i], "post-hammer " + pool[i].kernel);
  }
}

#pragma once

/// \file plan_service.hpp
/// Planner-as-a-service: one shared, concurrent front end for the
/// deterministic degradation chain (guarded model → tuning table → default
/// clocks).
///
/// The service wraps a guarded_planner behind
///   - a sharded, striped-lock plan cache keyed by (kernel, target) and
///     tagged with the chain's state generation, so a champion promotion
///     (or quarantine onset/lift) invalidates by a generation bump instead
///     of a global flush — each shard lazily drops its entries the next
///     time it is touched under a newer generation;
///   - one batched resolution path (plan_batch; plan() is a batch of one)
///     that amortises the guardrails: one quarantine check, one
///     OOD-envelope pass, and one fused model predict per batch, with
///     in-batch deduplication of identical (kernel, target) requests;
///   - a reader/writer lock making concurrent plan()/plan_batch() calls
///     safe against observe()/install()/reset_quarantine(). Cache hits take
///     no service lock; the misses are deduplicated and resolved under one
///     shared lock, so quarantined requests are never deduplicated.
///
/// Decisions are byte-identical to calling the underlying chain directly:
/// the cache only ever stores what the chain produced, and a batch of N
/// decides each request as a batch of one would (see
/// frequency_planner::plan_guarded_batch).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "synergy/guarded_planner.hpp"
#include "synergy/obs/energy_ledger.hpp"

namespace synergy {

/// Map a chain decision onto the energy ledger's attribution cause.
[[nodiscard]] constexpr obs::cause plan_cause(const plan_decision& d) {
  if (d.probe) return obs::cause::quarantine_probe;
  switch (d.tier) {
    case plan_tier::model: return obs::cause::model;
    case plan_tier::tuning_table: return obs::cause::tuning_table;
    case plan_tier::default_clocks: return obs::cause::default_clocks;
  }
  return obs::cause::default_clocks;
}

struct plan_service_options {
  /// Cache stripe count (clamped to ≥ 1). More shards, less lock contention.
  std::size_t shards{16};
  /// Whether decisions produced while the model tier is quarantined are
  /// cached. The queue's resolution path historically memoises every
  /// decision, probes included; the cluster's admission path resolves every
  /// placement so the quarantine-probe cadence advances per admission — it
  /// runs with this off. Flow-through also keeps per-request probe
  /// accounting exact (quarantined requests are never deduplicated).
  bool cache_quarantined{true};
};

/// One cached (kernel, target) → decision entry, in exportable form
/// (checkpoint/resume support). `target` is the rendered metrics::target
/// string — the cache key uses the rendered form, so re-import never needs
/// to re-parse it.
struct cached_plan {
  std::string kernel;
  std::string target;
  plan_decision decision;
};

/// A chain decision plus the service metadata attached to it.
struct serviced_plan {
  plan_decision decision;
  bool cache_hit{false};
  /// Chain-state generation the decision is valid for.
  std::uint64_t generation{0};
};

class plan_service {
 public:
  explicit plan_service(std::shared_ptr<guarded_planner> guard,
                        plan_service_options opts = {});

  /// Resolve a batch. Cache hits of the current generation are served per
  /// request; the misses are deduplicated by (kernel, target), resolved
  /// through the chain's batched guardrail path, fanned back out, and
  /// cached. Thread-safe.
  [[nodiscard]] std::vector<serviced_plan> plan_batch(std::span<const plan_request> reqs);

  /// Resolve one (kernel, features, target) request: a batch of one.
  [[nodiscard]] serviced_plan plan(const std::string& kernel,
                                   const gpusim::static_features& features,
                                   const metrics::target& target);

  /// Feed a measured energy sample to the drift monitor (exclusive with
  /// planning). Quarantine onset bumps the chain generation, dropping every
  /// cached model-tier decision.
  void observe(const std::string& kernel, const gpusim::static_features& features,
               common::megahertz core_clock, double measured_energy_j);

  /// Swap the model tier (champion promotion). The chain bumps its
  /// generation, so cached decisions invalidate without a global flush.
  void install(std::shared_ptr<const frequency_planner> planner);

  /// Lift a quarantine (bumps the chain generation).
  void reset_quarantine();

  /// Drop every cached decision by bumping the service epoch (e.g. after
  /// swapping the tuning-table tier out from under the guard).
  void invalidate() { epoch_.fetch_add(1, std::memory_order_release); }

  /// Effective cache generation: service epoch + chain-state generation.
  /// Install/quarantine transitions bump the chain side even when callers
  /// mutate the shared guard directly, so caches above the service never
  /// serve decisions from a previous model.
  [[nodiscard]] std::uint64_t generation() const {
    return epoch_.load(std::memory_order_acquire) + guard_->generation();
  }

  [[nodiscard]] bool quarantined() const { return guard_->quarantined(); }

  /// The underlying chain (counters, drift state, tier introspection).
  /// Mutations through this pointer bypass the service's writer lock; only
  /// single-threaded callers (the cluster simulator) may do that.
  [[nodiscard]] const std::shared_ptr<guarded_planner>& guard() const { return guard_; }

  struct stats {
    std::size_t hits{0};        ///< requests served from the cache
    std::size_t misses{0};      ///< requests resolved through the chain
    std::size_t deduped{0};     ///< batch requests folded onto an in-batch twin
  };
  [[nodiscard]] stats cache_stats() const {
    return {hits_.load(std::memory_order_relaxed), misses_.load(std::memory_order_relaxed),
            deduped_.load(std::memory_order_relaxed)};
  }

  /// Snapshot every cache entry still valid at the current generation,
  /// sorted by (kernel, target) for deterministic serialization. Cache hits
  /// bypass the degradation chain entirely, so a resumed run must restore
  /// the cache contents to reproduce the exporting run's hit/miss (and
  /// therefore chain-counter) sequence byte-for-byte.
  [[nodiscard]] std::vector<cached_plan> export_cache();
  /// Replace the whole cache with exported entries, stamped at this
  /// service's *current* generation. Callers are responsible for restoring
  /// guard state first so the generations line up. Not safe against
  /// concurrent planning (restore runs single-threaded).
  void import_cache(const std::vector<cached_plan>& entries);

 private:
  struct shard {
    std::mutex m;
    std::uint64_t epoch{0};  ///< generation the entries are valid for
    std::unordered_map<std::string, plan_decision> entries;
  };

  [[nodiscard]] static std::string make_key(const std::string& kernel,
                                            const metrics::target& target);
  [[nodiscard]] shard& shard_for(const std::string& key);

  /// Cache lookup at `gen`; lazily clears a shard left behind by an older
  /// generation. Returns true on hit.
  [[nodiscard]] bool lookup(const std::string& key, std::uint64_t gen, plan_decision& out);
  void store(const std::string& key, std::uint64_t gen, const plan_decision& d);

  std::shared_ptr<guarded_planner> guard_;
  plan_service_options opts_;
  std::vector<std::unique_ptr<shard>> shards_;
  std::atomic<std::uint64_t> epoch_{0};
  std::shared_mutex mu_;  ///< shared: plan paths; exclusive: observe/install
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> deduped_{0};
};

}  // namespace synergy

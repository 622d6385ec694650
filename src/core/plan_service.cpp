#include "synergy/plan_service.hpp"

#include <algorithm>
#include <functional>
#include <string_view>
#include <utility>

#include "synergy/telemetry/telemetry.hpp"

namespace synergy {

plan_service::plan_service(std::shared_ptr<guarded_planner> guard, plan_service_options opts)
    : guard_(std::move(guard)), opts_(opts) {
  if (opts_.shards == 0) opts_.shards = 1;
  shards_.reserve(opts_.shards);
  for (std::size_t i = 0; i < opts_.shards; ++i) shards_.push_back(std::make_unique<shard>());
}

std::string plan_service::make_key(const std::string& kernel, const metrics::target& target) {
  std::string key;
  key.reserve(kernel.size() + 16);
  key += kernel;
  key += '\0';
  key += target.to_string();
  return key;
}

plan_service::shard& plan_service::shard_for(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

bool plan_service::lookup(const std::string& key, std::uint64_t gen, plan_decision& out) {
  shard& s = shard_for(key);
  std::lock_guard lk(s.m);
  if (s.epoch != gen) {
    // Lazy invalidation: entries tagged with an older generation are dead;
    // drop them now that this shard is touched. A shard tagged newer (a
    // racing bump between our generation read and this lock) is simply a
    // miss — never retag downward.
    if (s.epoch < gen) {
      s.entries.clear();
      s.epoch = gen;
    }
    return false;
  }
  const auto it = s.entries.find(key);
  if (it == s.entries.end()) return false;
  out = it->second;
  return true;
}

void plan_service::store(const std::string& key, std::uint64_t gen, const plan_decision& d) {
  shard& s = shard_for(key);
  std::lock_guard lk(s.m);
  if (s.epoch > gen) return;  // a newer generation owns this shard; drop
  if (s.epoch < gen) {
    s.entries.clear();
    s.epoch = gen;
  }
  s.entries.insert_or_assign(key, d);
}

serviced_plan plan_service::plan(const std::string& kernel,
                                 const gpusim::static_features& features,
                                 const metrics::target& target) {
  const plan_request req{kernel, features, target};
  return std::move(plan_batch({&req, 1}).front());
}

std::vector<serviced_plan> plan_service::plan_batch(std::span<const plan_request> reqs) {
  std::vector<serviced_plan> out(reqs.size());
  const std::uint64_t gen = generation();

  // Pass 1, lock-free: serve cache hits and collect the misses. Counters
  // register on their first add, so only non-zero counts are added.
  struct pending {
    std::size_t request;
    std::string key;
    std::size_t slot{0};  ///< position of its chain request
  };
  std::vector<pending> miss;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    std::string key = make_key(reqs[i].kernel, reqs[i].target);
    out[i].generation = gen;
    if (lookup(key, gen, out[i].decision)) {
      out[i].cache_hit = true;
      continue;
    }
    miss.push_back({i, std::move(key)});
  }
  if (const std::size_t n_hits = reqs.size() - miss.size(); n_hits > 0) {
    hits_.fetch_add(n_hits, std::memory_order_relaxed);
    SYNERGY_COUNTER_ADD("plan_service.hits", static_cast<double>(n_hits));
  }
  if (miss.empty()) return out;

  // Pass 2: read the quarantine flag, deduplicate identical (kernel, target)
  // twins onto one chain request, and resolve the batch, all under one
  // shared lock — a quarantine onset cannot land between the dedupe and the
  // resolution. Quarantined chains skip dedupe so the per-request probe
  // cadence stays exact.
  std::vector<plan_request> chain;
  std::vector<plan_decision> resolved;
  bool cacheable = true;
  {
    std::shared_lock lk(mu_);
    const bool quarantined = guard_->quarantined();
    std::unordered_map<std::string_view, std::size_t> first;  // key → chain slot
    for (pending& p : miss) {
      if (!quarantined) {
        const auto [it, inserted] = first.try_emplace(p.key, chain.size());
        if (!inserted) {
          p.slot = it->second;
          continue;
        }
      }
      p.slot = chain.size();
      chain.push_back(reqs[p.request]);
    }
    misses_.fetch_add(chain.size(), std::memory_order_relaxed);
    SYNERGY_COUNTER_ADD("plan_service.misses", static_cast<double>(chain.size()));
    if (const std::size_t n_deduped = miss.size() - chain.size(); n_deduped > 0) {
      deduped_.fetch_add(n_deduped, std::memory_order_relaxed);
      SYNERGY_COUNTER_ADD("plan_service.batch_deduped", static_cast<double>(n_deduped));
    }
    resolved = guard_->plan_batch(chain);
    cacheable = opts_.cache_quarantined || !quarantined;
  }

  // Pass 3: fan results back out to every request and populate the cache.
  for (const pending& p : miss) {
    out[p.request].decision = resolved[p.slot];
    if (cacheable) store(p.key, gen, resolved[p.slot]);
  }
  return out;
}

void plan_service::observe(const std::string& kernel, const gpusim::static_features& features,
                           common::megahertz core_clock, double measured_energy_j) {
  std::unique_lock lk(mu_);
  guard_->observe(kernel, features, core_clock, measured_energy_j);
}

void plan_service::install(std::shared_ptr<const frequency_planner> planner) {
  std::unique_lock lk(mu_);
  guard_->install(std::move(planner));  // bumps the chain generation
}

void plan_service::reset_quarantine() {
  std::unique_lock lk(mu_);
  guard_->reset_quarantine();  // bumps the chain generation
}

std::vector<cached_plan> plan_service::export_cache() {
  const std::uint64_t gen = generation();
  std::vector<cached_plan> out;
  for (const auto& sp : shards_) {
    std::lock_guard lk(sp->m);
    if (sp->epoch != gen) continue;  // stale shard: entries are already dead
    for (const auto& [key, decision] : sp->entries) {
      const auto sep = key.find('\0');
      if (sep == std::string::npos) continue;
      out.push_back({key.substr(0, sep), key.substr(sep + 1), decision});
    }
  }
  std::sort(out.begin(), out.end(), [](const cached_plan& a, const cached_plan& b) {
    return a.kernel != b.kernel ? a.kernel < b.kernel : a.target < b.target;
  });
  return out;
}

void plan_service::import_cache(const std::vector<cached_plan>& entries) {
  // Replace, not merge: every shard is emptied and retagged at the current
  // generation, even one tagged newer (a restored guard may have moved the
  // chain generation back), so store() keeps every imported entry.
  const std::uint64_t gen = generation();
  for (const auto& sp : shards_) {
    std::lock_guard lk(sp->m);
    sp->entries.clear();
    sp->epoch = gen;
  }
  for (const auto& e : entries) {
    std::string key;
    key.reserve(e.kernel.size() + e.target.size() + 1);
    key += e.kernel;
    key += '\0';
    key += e.target;
    store(key, gen, e.decision);
  }
}

}  // namespace synergy

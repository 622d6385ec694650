#include "synergy/cluster/policy.hpp"

#include <algorithm>
#include <numeric>
#include <ranges>
#include <stdexcept>
#include <utility>

#include "synergy/econ/tco.hpp"

namespace synergy::cluster {

namespace {

/// First-fit: walk nodes in `order`, take free GPUs until `n` are found.
template <class Order>
std::optional<std::vector<gpu_slot>> first_fit(const cluster_view& view, const Order& order,
                                               int n) {
  std::vector<gpu_slot> slots;
  for (const std::size_t ni : order) {
    const auto& node = view.nodes[ni];
    for (std::size_t g = 0; g < node.gpu_busy.size(); ++g) {
      if (node.gpu_busy[g]) continue;
      slots.push_back({ni, g});
      if (static_cast<int>(slots.size()) == n) return slots;
    }
  }
  return std::nullopt;
}

/// Every node of the view, in index order.
auto all_nodes(const cluster_view& view) {
  return std::views::iota(std::size_t{0}, view.nodes.size());
}

class fifo_policy final : public scheduling_policy {
 public:
  [[nodiscard]] std::string name() const override { return "fifo"; }

  std::optional<placement> place(const queued_job& job, const cluster_view& view) override {
    if (!view.is_head) return std::nullopt;  // strict arrival order
    auto slots = first_fit(view, all_nodes(view), job.job.n_gpus);
    if (!slots) return std::nullopt;
    return placement{std::move(*slots), std::nullopt};
  }
};

class easy_backfill_policy final : public scheduling_policy {
 public:
  [[nodiscard]] std::string name() const override { return "backfill"; }
  [[nodiscard]] bool backfills() const override { return true; }

  std::optional<placement> place(const queued_job& job, const cluster_view& view) override {
    // EASY: a backfill candidate may start only if it finishes before the
    // head's reservation (shadow time), so the head is never delayed.
    if (!view.is_head && view.now + job.est_runtime_s > view.head_reservation_s)
      return std::nullopt;
    auto slots = first_fit(view, all_nodes(view), job.job.n_gpus);
    if (!slots) return std::nullopt;
    return placement{std::move(*slots), std::nullopt};
  }
};

class energy_aware_policy : public scheduling_policy {
 public:
  energy_aware_policy(plan_fn plan, std::optional<metrics::target> override_target)
      : plan_(std::move(plan)), override_(override_target) {}

  [[nodiscard]] std::string name() const override { return "energy"; }
  [[nodiscard]] bool backfills() const override { return true; }

  std::optional<placement> place(const queued_job& job, const cluster_view& view) override {
    if (!view.is_head && view.now + job.est_runtime_s > view.head_reservation_s)
      return std::nullopt;

    auto slots = first_fit(view, preferred_order(view), job.job.n_gpus);
    if (!slots) return std::nullopt;

    // The plan applies only when the nodes pass the check chain and the job
    // opted into a target (Sec. 7.2: no privileges, no clock change — the
    // job runs at defaults).
    std::optional<common::frequency_config> config;
    obs::cause cause = obs::cause::oracle;
    const std::string target_name =
        override_ ? override_->to_string() : job.job.target;
    const bool wants_tuning = target_name != "default" && !target_name.empty();
    if (wants_tuning && view.freq_capable && plan_) {
      const planned_clocks planned = plan_(job.job.kernel, metrics::target::parse(target_name));
      config = planned.config;
      cause = planned.cause;
    }

    return placement{std::move(*slots), config, cause};
  }

 private:
  /// The nodes, emptier first; ties resolve by index for determinism. A
  /// counting sort on the busy GPUs, stable in the index, into scratch
  /// reused across calls.
  const std::vector<std::size_t>& preferred_order(const cluster_view& view) {
    std::size_t widest = 0;
    for (const auto& nv : view.nodes) widest = std::max(widest, nv.gpu_busy.size());
    key_.resize(view.nodes.size());
    for (std::size_t i = 0; i < view.nodes.size(); ++i) {
      const auto& nv = view.nodes[i];
      key_[i] = static_cast<std::size_t>(std::count(nv.gpu_busy.begin(), nv.gpu_busy.end(), true));
    }
    // bucket_[k] becomes the first position of key k in the order.
    bucket_.assign(widest + 2, 0);
    for (const std::size_t k : key_) ++bucket_[k + 1];
    std::partial_sum(bucket_.begin(), bucket_.end(), bucket_.begin());
    order_.resize(view.nodes.size());
    for (std::size_t i = 0; i < key_.size(); ++i) order_[bucket_[key_[i]]++] = i;
    return order_;
  }

  plan_fn plan_;
  std::optional<metrics::target> override_;
  std::vector<std::size_t> key_;
  std::vector<std::size_t> bucket_;
  std::vector<std::size_t> order_;
};

/// energy_aware placement + the econ defer rule. The livelock argument: the
/// threshold is ratio (clamped >= 1) x the trace's time-weighted mean, so a
/// step trace always has some window at or below it; and a defer verdict
/// additionally requires a *reachable* next boundary that still fits the
/// job's deadline — so every deferred job either starts in a cheap window
/// or starts at the last boundary its deadline admits.
class cost_aware_policy final : public energy_aware_policy {
 public:
  cost_aware_policy(const econ::econ_config* econ, plan_fn plan,
                    std::optional<metrics::target> override_target)
      : energy_aware_policy(std::move(plan), override_target), econ_(econ) {}

  [[nodiscard]] std::string name() const override { return "cost-aware"; }

  [[nodiscard]] bool defer(const queued_job& job, const cluster_view& view) const override {
    if (!job.job.deferrable) return false;
    const double threshold =
        std::max(econ_->defer_price_ratio, 1.0) * econ_->price.mean();
    if (!(econ_->price.value_at(view.now) > threshold)) return false;
    const double boundary = econ_->price.next_change_after(view.now);
    if (boundary < 0.0) return false;  // flat from here on: waiting buys nothing
    // Deferring is only legal when starting at the boundary still meets the
    // deadline (estimated at default clocks, like EASY's reservations).
    if (job.job.deadline_s >= 0.0 &&
        boundary + job.est_runtime_s > job.job.deadline_s)
      return false;
    return true;
  }

 private:
  const econ::econ_config* econ_;
};

}  // namespace

std::size_t cluster_view::free_gpus() const {
  std::size_t n = 0;
  for (const auto& node : nodes)
    n += static_cast<std::size_t>(
        std::count(node.gpu_busy.begin(), node.gpu_busy.end(), false));
  return n;
}

std::unique_ptr<scheduling_policy> make_fifo() { return std::make_unique<fifo_policy>(); }

std::unique_ptr<scheduling_policy> make_easy_backfill() {
  return std::make_unique<easy_backfill_policy>();
}

std::unique_ptr<scheduling_policy> make_energy_aware(
    plan_fn plan, std::optional<metrics::target> override_target) {
  return std::make_unique<energy_aware_policy>(std::move(plan), override_target);
}

std::unique_ptr<scheduling_policy> make_cost_aware(
    const econ::econ_config* econ, plan_fn plan,
    std::optional<metrics::target> override_target) {
  if (econ == nullptr || !econ->usable())
    throw std::invalid_argument(
        "cost-aware policy needs an enabled econ config with a price trace");
  return std::make_unique<cost_aware_policy>(econ, std::move(plan), override_target);
}

std::unique_ptr<scheduling_policy> make_policy(const std::string& policy_name, plan_fn plan,
                                               std::optional<metrics::target> override_target,
                                               const econ::econ_config* econ) {
  if (policy_name == "fifo") return make_fifo();
  if (policy_name == "backfill" || policy_name == "easy") return make_easy_backfill();
  if (policy_name == "energy" || policy_name == "energy-aware")
    return make_energy_aware(std::move(plan), override_target);
  if (policy_name == "cost" || policy_name == "cost-aware")
    return make_cost_aware(econ, std::move(plan), override_target);
  throw std::invalid_argument("unknown scheduling policy: " + policy_name);
}

}  // namespace synergy::cluster

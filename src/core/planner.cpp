#include "synergy/planner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace synergy {

using common::frequency_config;
using common::megahertz;

std::array<double, model_input_dim> model_input(const gpusim::static_features& k,
                                                megahertz core_clock) {
  std::array<double, model_input_dim> x{};
  const auto features = k.as_array();
  for (std::size_t i = 0; i < features.size(); ++i) x[i] = features[i];
  const double f = core_clock.value / 1000.0;  // GHz keeps the basis O(1)
  x[10] = f;
  x[11] = 1.0 / f;
  x[12] = std::log(f);
  x[13] = f * f * f;
  return x;
}

metrics::characterization oracle_characterization(const gpusim::device_spec& spec,
                                                  const gpusim::kernel_profile& profile,
                                                  const gpusim::dvfs_model& model) {
  // Full cartesian sweep over (memory, core): a single memory clock on the
  // paper's HBM devices, a 2-D space on GDDR parts like the Titan X.
  metrics::characterization c;
  const auto memory_clocks = spec.supported_memory_clocks();
  c.points.reserve(spec.core_clocks.size() * memory_clocks.size());
  for (const megahertz m : memory_clocks) {
    for (const megahertz f : spec.core_clocks) {
      const auto cost = model.evaluate(spec, profile, {m, f});
      c.points.push_back({{m, f}, cost.time.value, cost.energy.value});
      if (m.value == spec.memory_clock.value && f.value == spec.default_core_clock().value)
        c.default_index = c.points.size() - 1;
    }
  }
  return c;
}

frequency_config oracle_plan(const gpusim::device_spec& spec,
                             const gpusim::kernel_profile& profile,
                             const metrics::target& target, const gpusim::dvfs_model& model) {
  const auto c = oracle_characterization(spec, profile, model);
  return c.points[metrics::select(c, target)].config;
}

frequency_planner::frequency_planner(gpusim::device_spec spec, trained_models models)
    : spec_(std::move(spec)), models_(std::move(models)) {
  if (!models_.complete())
    throw std::invalid_argument("frequency_planner requires four fitted models");
}

std::optional<double> frequency_planner::predicted_energy(const gpusim::static_features& k,
                                                          megahertz core_clock) const {
  const double e = models_.energy->predict_one(model_input(k, core_clock));
  if (!std::isfinite(e) || e <= 0.0) return std::nullopt;
  return e;
}

bool clamp_to_table(const gpusim::device_spec& spec, frequency_config& config) {
  bool clamped = false;
  if (!spec.supports_core_clock(config.core)) {
    config.core = spec.nearest_core_clock(config.core);
    clamped = true;
  }
  if (!spec.supports_memory_clock(config.memory)) {
    config.memory = spec.memory_clock;
    clamped = true;
  }
  return clamped;
}

namespace {

/// What the search found for one query.
struct search_result {
  frequency_config config;  ///< the rail-free pick
  std::string broken;       ///< first rail the raw predictions break ("" if none)
};

/// The planning search, shared by every entry point. Queries with `live[q]`
/// unset are skipped. Queries are grouped by the model their target needs
/// (MIN_EDP and MIN_ED2P use their dedicated models, as in the paper's
/// prediction phase, Sec. 6.2; every other target the time and energy
/// models), and each group runs one fused predict per model over one
/// contiguous design matrix. Predictions are per work item: constant scale
/// factors change neither the argmin nor the ES/PL interval arithmetic.
std::vector<search_result> search(const gpusim::device_spec& spec, const trained_models& models,
                                  std::span<const plan_request> queries,
                                  const std::vector<char>& live) {
  using kind = metrics::target::kind;
  std::vector<search_result> out(queries.size());
  const std::size_t n_clocks = spec.core_clocks.size();
  std::vector<std::size_t> edp_q, ed2p_q, te_q;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (!live[q]) continue;
    if (queries[q].target.k == kind::min_edp) edp_q.push_back(q);
    else if (queries[q].target.k == kind::min_ed2p) ed2p_q.push_back(q);
    else te_q.push_back(q);
  }

  const auto build_design = [&](const std::vector<std::size_t>& qs) {
    ml::matrix x(qs.size() * n_clocks, model_input_dim);
    std::size_t r = 0;
    for (const std::size_t q : qs)
      for (const megahertz f : spec.core_clocks) {
        const auto row = model_input(queries[q].features, f);
        const auto dst = x.row(r++);
        std::copy(row.begin(), row.end(), dst.begin());
      }
    return x;
  };

  // Product-metric targets: strict argmin over clocks, starting from the
  // default clock. Their models predict in log space, where negative values
  // are legitimate; only non-finite output breaks the rail.
  const auto run_product = [&](const std::vector<std::size_t>& qs, const ml::regressor& model) {
    if (qs.empty()) return;
    const ml::matrix x = build_design(qs);
    std::vector<double> pred(x.rows());
    model.predict_into(x, pred);
    for (std::size_t i = 0; i < qs.size(); ++i) {
      search_result& r = out[qs[i]];
      megahertz best = spec.default_core_clock();
      double best_v = std::numeric_limits<double>::infinity();
      for (std::size_t ci = 0; ci < n_clocks; ++ci) {
        const megahertz f = spec.core_clocks[ci];
        const double v = pred[i * n_clocks + ci];
        if (r.broken.empty() && !std::isfinite(v))
          r.broken = "non-finite " + queries[qs[i]].target.to_string() + " prediction at " +
                     std::to_string(f.value) + " MHz";
        if (v < best_v) {
          best_v = v;
          best = f;
        }
      }
      r.config = {spec.memory_clock, best};
    }
  };
  run_product(edp_q, *models.edp);
  run_product(ed2p_q, *models.ed2p);

  // Time/energy targets: both models predict over one shared design matrix;
  // each query selects on its own characterization, floored at zero. Time
  // and energy must be finite and positive to pass the rails.
  if (!te_q.empty()) {
    const ml::matrix x = build_design(te_q);
    std::vector<double> t_pred(x.rows());
    std::vector<double> e_pred(x.rows());
    models.time->predict_into(x, t_pred);
    models.energy->predict_into(x, e_pred);
    metrics::characterization c;
    c.points.reserve(n_clocks);
    c.default_index = spec.default_clock_index;
    for (std::size_t i = 0; i < te_q.size(); ++i) {
      search_result& r = out[te_q[i]];
      c.points.clear();
      for (std::size_t ci = 0; ci < n_clocks; ++ci) {
        const megahertz f = spec.core_clocks[ci];
        const double t = t_pred[i * n_clocks + ci];
        const double e = e_pred[i * n_clocks + ci];
        if (r.broken.empty()) {
          if (!std::isfinite(t) || !std::isfinite(e))
            r.broken = "non-finite time/energy prediction at " + std::to_string(f.value) + " MHz";
          else if (t <= 0.0 || e <= 0.0)
            r.broken =
                "non-positive time/energy prediction at " + std::to_string(f.value) + " MHz";
        }
        c.points.push_back({{spec.memory_clock, f}, std::max(0.0, t), std::max(0.0, e)});
      }
      r.config = c.points[metrics::select(c, queries[te_q[i]].target)].config;
    }
  }
  return out;
}

}  // namespace

frequency_config frequency_planner::plan(const gpusim::static_features& k,
                                         const metrics::target& target) const {
  const plan_request query{{}, k, target};
  return search(spec_, models_, {&query, 1}, std::vector<char>(1, 1)).front().config;
}

guarded_plan frequency_planner::plan_guarded(const gpusim::static_features& k,
                                             const metrics::target& target) const {
  const plan_request query{{}, k, target};
  return std::move(plan_guarded_batch({&query, 1}).front());
}

std::vector<guarded_plan> frequency_planner::plan_guarded_batch(
    std::span<const plan_request> queries) const {
  std::vector<guarded_plan> out(queries.size());
  // Out-of-distribution rail, before any model inference. The static-feature
  // columns are constant over the clock sweep and every clock-basis column
  // (f, 1/f, log f, f^3) is monotone in f, so checking the table endpoints
  // plus the default clock covers the entire deployment input range of a
  // kernel.
  std::vector<char> live(queries.size(), 1);
  if (models_.envelope.fitted()) {
    for (std::size_t q = 0; q < queries.size(); ++q) {
      for (const megahertz f :
           {spec_.min_core_clock(), spec_.default_core_clock(), spec_.max_core_clock()}) {
        if (!models_.envelope.contains(model_input(queries[q].features, f))) {
          out[q].ood = true;
          out[q].reason = "feature vector outside the training envelope at " +
                          std::to_string(f.value) + " MHz";
          live[q] = 0;
          break;
        }
      }
    }
  }

  auto found = search(spec_, models_, queries, live);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (!live[q]) continue;
    if (!found[q].broken.empty()) {
      out[q].reason = std::move(found[q].broken);
      continue;
    }
    // Clamp rail: a plan the device cannot run is worse than a clamped one.
    // By construction the search stays on the table; this guards refactors
    // and deserialized specs from ever issuing an unsupported clock.
    out[q].clamped = clamp_to_table(spec_, found[q].config);
    out[q].config = found[q].config;
  }
  return out;
}

}  // namespace synergy

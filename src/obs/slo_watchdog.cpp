#include "synergy/obs/slo_watchdog.hpp"

#include <charconv>
#include <cmath>
#include <sstream>
#include <utility>

#include "synergy/obs/snapshot.hpp"
#include "synergy/telemetry/export.hpp"
#include "synergy/telemetry/telemetry.hpp"

namespace synergy::obs {

namespace tel = telemetry;

using common::errc;
using common::error;
using common::result;

namespace {

/// Rolling regression ratio: sum of the last `window` samples over the sum
/// of the preceding `window`; negative when not yet evaluable.
double rolling_ratio(const std::deque<double>& samples, std::size_t window) {
  if (samples.size() < 2 * window) return -1.0;
  double recent = 0.0, baseline = 0.0;
  const std::size_t n = samples.size();
  for (std::size_t i = n - window; i < n; ++i) recent += samples[i];
  for (std::size_t i = n - 2 * window; i < n - window; ++i) baseline += samples[i];
  if (baseline <= 0.0) return -1.0;
  return recent / baseline;
}

}  // namespace

common::result<slo_rule> slo_rule::parse(std::string_view line) {
  std::istringstream in{std::string{line}};
  std::string kind_word, op;
  double threshold = 0.0;
  if (!(in >> kind_word)) return error{errc::invalid_argument, "empty rule"};

  slo_rule out;
  out.text = kind_word;
  if (kind_word == "energy_per_job_ratio") {
    out.what = kind::energy_per_job_ratio;
  } else if (kind_word == "fallback_ratio") {
    out.what = kind::fallback_ratio;
  } else if (kind_word == "breaker_open_delta") {
    out.what = kind::breaker_open_delta;
  } else if (kind_word == "quarantine_dwell_s") {
    out.what = kind::quarantine_dwell_s;
  } else if (kind_word == "wasted_energy_j") {
    out.what = kind::wasted_energy_j;
  } else if (kind_word == "cost_per_job_ratio") {
    out.what = kind::cost_per_job_ratio;
  } else if (kind_word == "carbon_per_job_ratio") {
    out.what = kind::carbon_per_job_ratio;
  } else {
    return error{errc::invalid_argument, "unknown rule kind '" + kind_word + "'"};
  }

  if (!(in >> op) || op != ">")
    return error{errc::invalid_argument, "expected '>' after '" + kind_word + "'"};
  if (!(in >> threshold) || !std::isfinite(threshold))
    return error{errc::invalid_argument, "expected a finite threshold after '>'"};
  out.threshold = threshold;
  out.text = kind_word + " > " + format_double(threshold);

  std::string word;
  if (in >> word) {
    if (word != "window")
      return error{errc::invalid_argument, "unexpected token '" + word + "'"};
    long n = 0;
    if (!(in >> n) || n < 1)
      return error{errc::invalid_argument, "window needs a positive integer"};
    out.window = static_cast<std::size_t>(n);
    out.text += " window " + std::to_string(n);
    if (in >> word)
      return error{errc::invalid_argument, "unexpected token '" + word + "'"};
  }
  return out;
}

common::result<std::vector<slo_rule>> parse_rules(std::string_view text) {
  std::vector<slo_rule> out;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find('\n', start);
    std::string_view line =
        text.substr(start, end == std::string_view::npos ? std::string_view::npos
                                                         : end - start);
    ++line_no;
    start = end == std::string_view::npos ? text.size() + 1 : end + 1;
    // Strip comments and surrounding whitespace.
    if (const auto hash = line.find('#'); hash != std::string_view::npos)
      line = line.substr(0, hash);
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t'))
      line.remove_prefix(1);
    while (!line.empty() && (line.back() == ' ' || line.back() == '\t' ||
                             line.back() == '\r'))
      line.remove_suffix(1);
    if (line.empty()) continue;
    auto rule = slo_rule::parse(line);
    if (!rule)
      return error{errc::invalid_argument,
                   "line " + std::to_string(line_no) + ": " + rule.err().message};
    out.push_back(std::move(rule).value());
  }
  return out;
}

std::string alert::to_json_line() const {
  std::string out = "{\"t_s\":";
  append_double(out, t_s);
  out += ",\"rule\":\"";
  tel::append_json_escaped(out, rule);
  out += "\",\"kind\":\"";
  tel::append_json_escaped(out, kind_name);
  out += "\",\"value\":";
  append_double(out, value);
  out += ",\"threshold\":";
  append_double(out, threshold);
  out += ",\"detail\":\"";
  tel::append_json_escaped(out, detail);
  out += "\"}";
  return out;
}

slo_watchdog::slo_watchdog(std::vector<slo_rule> rules, const energy_ledger* ledger)
    : rules_(std::move(rules)), states_(rules_.size()), ledger_(ledger) {
  for (const auto& r : rules_) {
    if (r.what == slo_rule::kind::energy_per_job_ratio)
      max_window_ = std::max(max_window_, r.window);
    if (r.what == slo_rule::kind::cost_per_job_ratio ||
        r.what == slo_rule::kind::carbon_per_job_ratio)
      max_econ_window_ = std::max(max_econ_window_, r.window);
  }
#if SYNERGY_TELEMETRY_ENABLED
  breaker_opens_base_ =
      tel::metrics_registry::instance().get_counter("resilience.breaker_opens").value();
#endif
}

void slo_watchdog::observe_job(double energy_per_gpu_j) {
  if (!std::isfinite(energy_per_gpu_j) || energy_per_gpu_j < 0.0) return;
  if (max_window_ == 0) return;
  job_energies_.push_back(energy_per_gpu_j);
  while (job_energies_.size() > 2 * max_window_) job_energies_.pop_front();
}

void slo_watchdog::observe_job_cost(double cost_per_gpu_usd, double carbon_per_gpu_g) {
  if (max_econ_window_ == 0) return;
  if (std::isfinite(cost_per_gpu_usd) && cost_per_gpu_usd >= 0.0) {
    job_costs_.push_back(cost_per_gpu_usd);
    while (job_costs_.size() > 2 * max_econ_window_) job_costs_.pop_front();
  }
  if (std::isfinite(carbon_per_gpu_g) && carbon_per_gpu_g >= 0.0) {
    job_carbons_.push_back(carbon_per_gpu_g);
    while (job_carbons_.size() > 2 * max_econ_window_) job_carbons_.pop_front();
  }
}

void slo_watchdog::observe_plan(bool model_tier) {
  ++plans_total_;
  if (model_tier) ++plans_model_;
}

void slo_watchdog::observe_quarantine(double t_s, bool quarantined) {
  if (quarantined) {
    if (quarantine_since_ < 0.0) quarantine_since_ = t_s;
  } else {
    quarantine_since_ = -1.0;
  }
}

double slo_watchdog::measure(const slo_rule& r, double t_s, std::string& detail) const {
  switch (r.what) {
    case slo_rule::kind::energy_per_job_ratio: {
      if (job_energies_.size() < 2 * r.window) return -1.0;
      double recent = 0.0, baseline = 0.0;
      const std::size_t n = job_energies_.size();
      for (std::size_t i = n - r.window; i < n; ++i) recent += job_energies_[i];
      for (std::size_t i = n - 2 * r.window; i < n - r.window; ++i)
        baseline += job_energies_[i];
      if (baseline <= 0.0) return -1.0;
      detail = "mean per-GPU job energy, last " + std::to_string(r.window) +
               " completions vs the preceding " + std::to_string(r.window);
      return recent / baseline;
    }
    case slo_rule::kind::fallback_ratio: {
      if (plans_total_ < r.window) return -1.0;
      detail = std::to_string(plans_total_ - plans_model_) + " of " +
               std::to_string(plans_total_) + " decisions off the model tier";
      return static_cast<double>(plans_total_ - plans_model_) /
             static_cast<double>(plans_total_);
    }
    case slo_rule::kind::breaker_open_delta: {
#if SYNERGY_TELEMETRY_ENABLED
      const auto opens =
          tel::metrics_registry::instance().get_counter("resilience.breaker_opens").value();
      const auto delta = opens >= breaker_opens_base_ ? opens - breaker_opens_base_ : 0;
      detail = "circuit-breaker opens since watchdog reset";
      return static_cast<double>(delta);
#else
      return -1.0;
#endif
    }
    case slo_rule::kind::quarantine_dwell_s: {
      if (quarantine_since_ < 0.0) return 0.0;
      detail = "model set quarantined since t=" + format_double(quarantine_since_) + "s";
      return std::max(0.0, t_s - quarantine_since_);
    }
    case slo_rule::kind::wasted_energy_j: {
      if (!ledger_) return -1.0;
      detail = "ledger joules tagged fault_wasted";
      return ledger_
          ->totals_by_cause()[static_cast<std::size_t>(cause::fault_wasted)];
    }
    case slo_rule::kind::cost_per_job_ratio: {
      const double v = rolling_ratio(job_costs_, r.window);
      if (v < 0.0) return -1.0;
      detail = "mean per-GPU job cost, last " + std::to_string(r.window) +
               " completions vs the preceding " + std::to_string(r.window);
      return v;
    }
    case slo_rule::kind::carbon_per_job_ratio: {
      const double v = rolling_ratio(job_carbons_, r.window);
      if (v < 0.0) return -1.0;
      detail = "mean per-GPU job carbon, last " + std::to_string(r.window) +
               " completions vs the preceding " + std::to_string(r.window);
      return v;
    }
  }
  return -1.0;
}

void slo_watchdog::evaluate(double t_s) {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const auto& r = rules_[i];
    std::string detail;
    const double v = measure(r, t_s, detail);
    if (v < 0.0) continue;  // not evaluable yet: leave the latch untouched
    const bool violated = v > r.threshold;
    if (violated && !states_[i].firing) {
      alert a;
      a.t_s = t_s;
      a.rule = r.text;
      a.kind_name = to_string(r.what);
      a.value = v;
      a.threshold = r.threshold;
      a.detail = std::move(detail);
      SYNERGY_INSTANT(tel::category::alert, a.rule, {"t_s", t_s}, {"value", v},
                      {"threshold", r.threshold});
      if (sink_) sink_(a);
      alerts_.push_back(std::move(a));
      SYNERGY_COUNTER_ADD("obs.alerts_fired", 1);
    }
    states_[i].firing = violated;
  }
}

void slo_watchdog::set_alert_sink(std::function<void(const alert&)> sink) {
  sink_ = std::move(sink);
}

void slo_watchdog::reset() {
  states_.assign(rules_.size(), rule_state{});
  alerts_.clear();
  job_energies_.clear();
  job_costs_.clear();
  job_carbons_.clear();
  plans_total_ = plans_model_ = 0;
  quarantine_since_ = -1.0;
#if SYNERGY_TELEMETRY_ENABLED
  breaker_opens_base_ =
      tel::metrics_registry::instance().get_counter("resilience.breaker_opens").value();
#endif
}

watchdog_state slo_watchdog::export_state() const {
  watchdog_state s;
  s.firing.reserve(states_.size());
  for (const rule_state& st : states_) s.firing.push_back(st.firing);
  s.alerts = alerts_;
  s.job_energies.assign(job_energies_.begin(), job_energies_.end());
  s.job_costs.assign(job_costs_.begin(), job_costs_.end());
  s.job_carbons.assign(job_carbons_.begin(), job_carbons_.end());
  s.plans_total = plans_total_;
  s.plans_model = plans_model_;
  s.quarantine_since = quarantine_since_;
  s.breaker_opens_base = breaker_opens_base_;
  return s;
}

bool slo_watchdog::import_state(const watchdog_state& s) {
  if (!accepts(s)) return false;
  states_.assign(rules_.size(), rule_state{});
  for (std::size_t i = 0; i < rules_.size(); ++i) states_[i].firing = s.firing[i];
  alerts_ = s.alerts;
  job_energies_.assign(s.job_energies.begin(), s.job_energies.end());
  job_costs_.assign(s.job_costs.begin(), s.job_costs.end());
  job_carbons_.assign(s.job_carbons.begin(), s.job_carbons.end());
  plans_total_ = s.plans_total;
  plans_model_ = s.plans_model;
  quarantine_since_ = s.quarantine_since;
  breaker_opens_base_ = s.breaker_opens_base;
  return true;
}

}  // namespace synergy::obs

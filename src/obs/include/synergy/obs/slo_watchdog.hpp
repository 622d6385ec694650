#pragma once

/// \file slo_watchdog.hpp
/// Declarative SLO rules over the observability plane.
///
/// Drift and lifecycle incidents bump counters; without a watchdog they
/// stay silent until someone reads a summary table. The watchdog evaluates
/// a small rule language on every scrape tick and turns violations into
/// structured alerts: a trace-ring instant (category::alert) plus a JSONL
/// record through the alert sink (tools stream it to `<prefix>.alerts.jsonl`).
///
/// Rule grammar (one rule per line, '#' comments and blank lines ignored):
///
///     <kind> > <threshold> [window <N>]
///
/// kinds:
///   energy_per_job_ratio   mean per-GPU job energy of the last N completions
///                          vs. the preceding N (rolling regression check);
///                          needs 2N completions before it can fire
///   fallback_ratio         non-model planner decisions / total decisions,
///                          evaluated once at least N decisions were seen
///   breaker_open_delta     resilience.breaker_opens counter growth since the
///                          watchdog was reset
///   quarantine_dwell_s     seconds the model set has currently been
///                          quarantined (virtual time)
///   wasted_energy_j        ledger joules tagged cause::fault_wasted
///   cost_per_job_ratio     mean per-GPU job cost (USD) of the last N
///                          completions vs. the preceding N — the econ
///                          plane's cost-regression check; needs 2N priced
///                          completions before it can fire
///   carbon_per_job_ratio   same rolling check over per-GPU job carbon (g)
///
/// Alerts latch: a rule fires on the false→true transition and re-arms only
/// after the condition clears, so a persistent violation produces one alert,
/// not one per scrape.

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "synergy/common/error.hpp"
#include "synergy/obs/energy_ledger.hpp"

namespace synergy::obs {

struct slo_rule {
  enum class kind {
    energy_per_job_ratio,
    fallback_ratio,
    breaker_open_delta,
    quarantine_dwell_s,
    wasted_energy_j,
    cost_per_job_ratio,
    carbon_per_job_ratio,
  };

  kind what{kind::wasted_energy_j};
  double threshold{0.0};
  /// Window size: completions per side for energy_per_job_ratio, minimum
  /// decisions before fallback_ratio may fire; unused by the other kinds.
  std::size_t window{16};
  std::string text;  ///< the rule as written (alert correlation)

  /// Parse one rule line; the error message names what was malformed.
  [[nodiscard]] static common::result<slo_rule> parse(std::string_view line);
};

[[nodiscard]] constexpr const char* to_string(slo_rule::kind k) {
  switch (k) {
    case slo_rule::kind::energy_per_job_ratio: return "energy_per_job_ratio";
    case slo_rule::kind::fallback_ratio: return "fallback_ratio";
    case slo_rule::kind::breaker_open_delta: return "breaker_open_delta";
    case slo_rule::kind::quarantine_dwell_s: return "quarantine_dwell_s";
    case slo_rule::kind::wasted_energy_j: return "wasted_energy_j";
    case slo_rule::kind::cost_per_job_ratio: return "cost_per_job_ratio";
    case slo_rule::kind::carbon_per_job_ratio: return "carbon_per_job_ratio";
  }
  return "?";
}

/// Parse a whole rules file; errors carry "line N:" prefixes so a bad file
/// points at the offending rule.
[[nodiscard]] common::result<std::vector<slo_rule>> parse_rules(std::string_view text);

/// One fired rule violation.
struct alert {
  double t_s{0.0};        ///< virtual time of the evaluation that fired
  std::string rule;       ///< the rule text as written
  std::string kind_name;  ///< rule kind name
  double value{0.0};      ///< observed value at fire time
  double threshold{0.0};
  std::string detail;     ///< human-readable context

  [[nodiscard]] std::string to_json_line() const;
};

/// Full observation state of a slo_watchdog (checkpoint/resume support).
/// Rules are NOT part of the state — the resuming process re-parses the same
/// rules file; import validates the count lines up.
struct watchdog_state {
  std::vector<bool> firing;          ///< per-rule violation latch
  std::vector<alert> alerts;         ///< alerts fired so far
  std::vector<double> job_energies;  ///< rolling per-GPU energy window
  std::vector<double> job_costs;     ///< rolling per-GPU cost window (USD)
  std::vector<double> job_carbons;   ///< rolling per-GPU carbon window (g)
  std::uint64_t plans_total{0};
  std::uint64_t plans_model{0};
  double quarantine_since{-1.0};
  std::uint64_t breaker_opens_base{0};
};

class slo_watchdog {
 public:
  /// `ledger` feeds wasted_energy_j; nullptr disables that kind.
  explicit slo_watchdog(std::vector<slo_rule> rules,
                        const energy_ledger* ledger = nullptr);

  /// Feed one completed job's per-GPU energy (rolling baseline input).
  void observe_job(double energy_per_gpu_j);

  /// Feed one completed job's shadow-priced per-GPU cost and carbon (econ
  /// plane input; the cost/carbon ratio rules roll over these).
  void observe_job_cost(double cost_per_gpu_usd, double carbon_per_gpu_g);

  /// Feed one planner decision; `model_tier` marks the model tier.
  void observe_plan(bool model_tier);

  /// Feed the current quarantine flag at virtual time `t_s` (dwell clock).
  void observe_quarantine(double t_s, bool quarantined);

  /// Evaluate every rule at virtual time `t_s`, appending alerts for
  /// rules that transition into violation.
  void evaluate(double t_s);

  [[nodiscard]] const std::vector<alert>& alerts() const { return alerts_; }
  [[nodiscard]] const std::vector<slo_rule>& rules() const { return rules_; }

  /// Called once per fired alert (in addition to the trace-ring instant).
  void set_alert_sink(std::function<void(const alert&)> sink);

  /// Clear observations and alerts; rules stay installed.
  void reset();

  /// Snapshot every latch, alert, and rolling observation.
  [[nodiscard]] watchdog_state export_state() const;
  /// True when the snapshot's latch count matches this watchdog's
  /// installed rules, i.e. import_state(s) succeeds.
  [[nodiscard]] bool accepts(const watchdog_state& s) const {
    return s.firing.size() == rules_.size();
  }
  /// Restore a snapshot. Returns false (watchdog untouched) unless
  /// accepts(s). The alert sink
  /// is NOT invoked for restored alerts — callers re-emit them explicitly
  /// if their sink is a fresh output stream.
  bool import_state(const watchdog_state& s);

 private:
  struct rule_state {
    bool firing{false};  ///< latch: currently in violation
  };

  /// Current value of `r`, or negative when not yet evaluable.
  [[nodiscard]] double measure(const slo_rule& r, double t_s,
                               std::string& detail) const;

  std::vector<slo_rule> rules_;
  std::vector<rule_state> states_;
  const energy_ledger* ledger_;
  std::function<void(const alert&)> sink_;
  std::vector<alert> alerts_;
  // Rolling energy-per-job window: bounded by the largest rule window.
  std::deque<double> job_energies_;
  std::size_t max_window_{0};
  // Rolling cost/carbon windows: bounded by the largest econ rule window.
  std::deque<double> job_costs_;
  std::deque<double> job_carbons_;
  std::size_t max_econ_window_{0};
  std::uint64_t plans_total_{0};
  std::uint64_t plans_model_{0};
  double quarantine_since_{-1.0};  ///< < 0: not quarantined
  std::uint64_t breaker_opens_base_{0};
};

}  // namespace synergy::obs

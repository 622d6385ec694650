#include "synergy/obs/snapshot.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>

#include "synergy/common/envelope.hpp"
#include "synergy/telemetry/export.hpp"

namespace synergy::obs {

namespace tel = telemetry;

std::string format_double(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc{}) return "0";
  return std::string(buf, end);
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; everything else becomes '_'.
std::string sanitize_metric_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name)
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':')
               ? c
               : '_';
  return out;
}

bool is_volatile(const snapshot_options& options, const std::string& name) {
  return std::find(options.volatile_metrics.begin(), options.volatile_metrics.end(),
                   name) != options.volatile_metrics.end();
}

void append_cause_object(std::string& out, const cause_array& by_cause,
                         bool nonzero_only) {
  out += '{';
  bool first = true;
  for (std::size_t c = 0; c < n_causes; ++c) {
    if (nonzero_only && by_cause[c] == 0.0) continue;
    if (!first) out += ',';
    first = false;
    out += '"';
    out += to_string(static_cast<cause>(c));
    out += "\":";
    out += format_double(by_cause[c]);
  }
  out += '}';
}

void append_metrics_json(std::string& out, const snapshot_options& options) {
  const auto metrics = tel::metrics_registry::instance().snapshot();
  bool first = true;
  for (const auto& m : metrics) {
    if (is_volatile(options, m.name)) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += tel::json_escape(m.name);
    out += "\",\"kind\":\"";
    switch (m.type) {
      case tel::metric_snapshot::kind::counter:
        out += "counter\",\"value\":" + format_double(m.value);
        break;
      case tel::metric_snapshot::kind::gauge:
        out += "gauge\",\"value\":" + format_double(m.value);
        break;
      case tel::metric_snapshot::kind::histogram:
        out += "histogram\",\"count\":" + std::to_string(m.count);
        out += ",\"sum\":" + format_double(m.sum);
        out += ",\"min\":" + format_double(m.min);
        out += ",\"max\":" + format_double(m.max);
        out += ",\"mean\":" + format_double(m.mean);
        out += ",\"p50\":" +
               format_double(tel::histogram_quantile(m.bounds, m.buckets, m.min, m.max, 0.50));
        out += ",\"p99\":" +
               format_double(tel::histogram_quantile(m.bounds, m.buckets, m.min, m.max, 0.99));
        break;
    }
    out += '}';
  }
}

}  // namespace

std::string render_json(const energy_ledger& ledger, const slo_watchdog* watchdog,
                        const snapshot_options& options) {
  std::string out;
  out.reserve(4096);
  out += "{\"schema\":\"synergy.obs.snapshot/v1\",\"source\":\"";
  out += tel::json_escape(options.source);
  out += "\",\"sequence\":" + std::to_string(options.sequence);
  out += ",\"time_s\":" + format_double(options.time_s);

  out += ",\"ledger\":{\"total_j\":" + format_double(ledger.total_j());
  out += ",\"charges\":" + std::to_string(ledger.charges());
  out += ",\"by_cause\":";
  append_cause_object(out, ledger.totals_by_cause(), /*nonzero_only=*/false);

  out += ",\"entries\":[";
  bool first = true;
  for (const auto& e : ledger.entries()) {
    if (!first) out += ',';
    first = false;
    out += "{\"node\":\"" + tel::json_escape(e.key.node);
    out += "\",\"device\":\"" + tel::json_escape(e.key.device);
    out += "\",\"job\":\"" + tel::json_escape(e.key.job);
    out += "\",\"kernel\":\"" + tel::json_escape(e.key.kernel);
    out += "\",\"total_j\":" + format_double(e.total_j);
    out += ",\"by_cause\":";
    append_cause_object(out, e.by_cause, /*nonzero_only=*/true);
    out += '}';
  }
  out += "],\"series\":[";
  first = true;
  for (const auto& s : ledger.series()) {
    if (!first) out += ',';
    first = false;
    out += "{\"t_s\":" + format_double(s.t_s);
    out += ",\"total_j\":" + format_double(s.total_j);
    out += ",\"charges\":" + std::to_string(s.charges);
    out += ",\"by_cause\":";
    append_cause_object(out, s.by_cause, /*nonzero_only=*/true);
    out += '}';
  }
  out += "]}";

  if (options.econ.enabled) {
    const auto& ec = options.econ;
    out += ",\"econ\":{\"cost_usd\":" + format_double(ec.cost_usd);
    out += ",\"capex_usd\":" + format_double(ec.capex_usd);
    out += ",\"carbon_g\":" + format_double(ec.carbon_g);
    out += ",\"cost_per_job_usd\":" + format_double(ec.cost_per_job_usd);
    out += ",\"carbon_per_job_g\":" + format_double(ec.carbon_per_job_g);
    out += ",\"jobs_completed\":" + std::to_string(ec.jobs_completed);
    out += ",\"attributed_cost_usd\":" + format_double(ec.attributed_cost_usd);
    out += ",\"cost_by_cause\":";
    append_cause_object(out, ec.cost_by_cause, /*nonzero_only=*/false);
    out += ",\"attributed_carbon_g\":" + format_double(ec.attributed_carbon_g);
    out += ",\"carbon_by_cause\":";
    append_cause_object(out, ec.carbon_by_cause, /*nonzero_only=*/false);
    out += '}';
  }

  out += ",\"alerts\":[";
  if (watchdog) {
    first = true;
    for (const auto& a : watchdog->alerts()) {
      if (!first) out += ',';
      first = false;
      out += a.to_json_line();
    }
  }
  out += ']';

  out += ",\"metrics\":[";
  if (options.include_metrics) append_metrics_json(out, options);
  out += "]}";
  return out;
}

std::string render_prometheus(const energy_ledger& ledger,
                              const snapshot_options& options) {
  std::string out;
  out.reserve(4096);

  out += "# HELP synergy_energy_joules Simulated joules attributed by "
         "node/device/job/kernel and cause.\n";
  out += "# TYPE synergy_energy_joules counter\n";
  for (const auto& e : ledger.entries()) {
    for (std::size_t c = 0; c < n_causes; ++c) {
      if (e.by_cause[c] == 0.0) continue;
      out += "synergy_energy_joules{node=\"" + tel::json_escape(e.key.node);
      out += "\",device=\"" + tel::json_escape(e.key.device);
      out += "\",job=\"" + tel::json_escape(e.key.job);
      out += "\",kernel=\"" + tel::json_escape(e.key.kernel);
      out += "\",cause=\"";
      out += to_string(static_cast<cause>(c));
      out += "\"} " + format_double(e.by_cause[c]) + "\n";
    }
  }

  out += "# TYPE synergy_energy_cause_joules counter\n";
  const auto totals = ledger.totals_by_cause();
  for (std::size_t c = 0; c < n_causes; ++c) {
    out += "synergy_energy_cause_joules{cause=\"";
    out += to_string(static_cast<cause>(c));
    out += "\"} " + format_double(totals[c]) + "\n";
  }
  out += "# TYPE synergy_energy_total_joules counter\n";
  out += "synergy_energy_total_joules " + format_double(ledger.total_j()) + "\n";
  out += "# TYPE synergy_obs_ledger_charges_total counter\n";
  out += "synergy_obs_ledger_charges_total " + std::to_string(ledger.charges()) + "\n";
  out += "# TYPE synergy_obs_snapshot_sequence counter\n";
  out += "synergy_obs_snapshot_sequence " + std::to_string(options.sequence) + "\n";
  out += "# TYPE synergy_obs_snapshot_time_seconds gauge\n";
  out += "synergy_obs_snapshot_time_seconds " + format_double(options.time_s) + "\n";

  if (options.econ.enabled) {
    const auto& ec = options.econ;
    out += "# TYPE synergy_econ_cost_usd gauge\n";
    out += "synergy_econ_cost_usd " + format_double(ec.cost_usd) + "\n";
    out += "# TYPE synergy_econ_capex_usd gauge\n";
    out += "synergy_econ_capex_usd " + format_double(ec.capex_usd) + "\n";
    out += "# TYPE synergy_econ_carbon_grams gauge\n";
    out += "synergy_econ_carbon_grams " + format_double(ec.carbon_g) + "\n";
    out += "# TYPE synergy_econ_cost_per_job_usd gauge\n";
    out += "synergy_econ_cost_per_job_usd " + format_double(ec.cost_per_job_usd) + "\n";
    out += "# TYPE synergy_econ_carbon_per_job_grams gauge\n";
    out += "synergy_econ_carbon_per_job_grams " + format_double(ec.carbon_per_job_g) + "\n";
    out += "# TYPE synergy_econ_cause_cost_usd counter\n";
    for (std::size_t c = 0; c < n_causes; ++c) {
      out += "synergy_econ_cause_cost_usd{cause=\"";
      out += to_string(static_cast<cause>(c));
      out += "\"} " + format_double(ec.cost_by_cause[c]) + "\n";
    }
    out += "# TYPE synergy_econ_cause_carbon_grams counter\n";
    for (std::size_t c = 0; c < n_causes; ++c) {
      out += "synergy_econ_cause_carbon_grams{cause=\"";
      out += to_string(static_cast<cause>(c));
      out += "\"} " + format_double(ec.carbon_by_cause[c]) + "\n";
    }
  }

  if (!options.include_metrics) return out;
  for (const auto& m : tel::metrics_registry::instance().snapshot()) {
    // Same volatile filter as the JSON document: wall-clock-valued
    // instruments would break the workflow's .prom byte-diffs.
    if (is_volatile(options, m.name)) continue;
    const std::string name = "synergy_" + sanitize_metric_name(m.name);
    switch (m.type) {
      case tel::metric_snapshot::kind::counter:
        out += "# TYPE " + name + " counter\n";
        out += name + " " + format_double(m.value) + "\n";
        break;
      case tel::metric_snapshot::kind::gauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + " " + format_double(m.value) + "\n";
        break;
      case tel::metric_snapshot::kind::histogram: {
        out += "# TYPE " + name + " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < m.buckets.size(); ++i) {
          cumulative += m.buckets[i];
          const std::string le =
              i < m.bounds.size() ? format_double(m.bounds[i]) : std::string{"+Inf"};
          out += name + "_bucket{le=\"" + le + "\"} " + std::to_string(cumulative) + "\n";
        }
        out += name + "_sum " + format_double(m.sum) + "\n";
        out += name + "_count " + std::to_string(m.count) + "\n";
        // Quantile companions (satellite: plan-latency p50/p99 in snapshots).
        out += "# TYPE " + name + "_p50 gauge\n";
        out += name + "_p50 " +
               format_double(
                   tel::histogram_quantile(m.bounds, m.buckets, m.min, m.max, 0.50)) +
               "\n";
        out += "# TYPE " + name + "_p99 gauge\n";
        out += name + "_p99 " +
               format_double(
                   tel::histogram_quantile(m.bounds, m.buckets, m.min, m.max, 0.99)) +
               "\n";
        break;
      }
    }
  }
  return out;
}

common::status write_snapshot_files(const std::filesystem::path& prefix,
                                    const energy_ledger& ledger,
                                    const slo_watchdog* watchdog,
                                    const snapshot_options& options) {
  std::filesystem::path json_path = prefix;
  json_path += ".json";
  if (auto st = common::atomic_write_file(json_path,
                                          render_json(ledger, watchdog, options));
      !st.ok())
    return st;
  std::filesystem::path prom_path = prefix;
  prom_path += ".prom";
  return common::atomic_write_file(prom_path, render_prometheus(ledger, options));
}

}  // namespace synergy::obs

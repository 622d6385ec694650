#include "synergy/obs/snapshot.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>

#include "synergy/common/envelope.hpp"
#include "synergy/telemetry/export.hpp"

namespace synergy::obs {

namespace tel = telemetry;

void append_double(std::string& out, double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (std::isfinite(v) && ec == std::errc{})
    out.append(buf, end);
  else
    out += '0';
}

std::string format_double(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

namespace {

void append_number(std::string& out, double v) { append_double(out, v); }

void append_number(std::string& out, std::uint64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// A Prometheus label value: the text format escapes only backslash, double
/// quote and newline, and a strict parser rejects any other escape. Every
/// other byte is copied verbatim.
void append_label_value(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; everything else becomes '_'.
void append_metric_name(std::string& out, std::string_view name) {
  for (const char c : name)
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':')
               ? c
               : '_';
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
    append_double(out, by_cause[c]);
  }
  out += '}';
}

/// `,"<field>":<v>` inside a JSON object.
template <class T>
void append_field(std::string& out, std::string_view field, T v) {
  out += ",\"";
  out += field;
  out += "\":";
  append_number(out, v);
}

void append_metrics_json(std::string& out, const snapshot_options& options) {
  const auto metrics = tel::metrics_registry::instance().snapshot();
  bool first = true;
  for (const auto& m : metrics) {
    if (is_volatile(options, m.name)) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    tel::append_json_escaped(out, m.name);
    out += "\",\"kind\":\"";
    switch (m.type) {
      case tel::metric_snapshot::kind::counter:
        out += "counter\"";
        append_field(out, "value", m.value);
        break;
      case tel::metric_snapshot::kind::gauge:
        out += "gauge\"";
        append_field(out, "value", m.value);
        break;
      case tel::metric_snapshot::kind::histogram:
        out += "histogram\"";
        append_field(out, "count", m.count);
        append_field(out, "sum", m.sum);
        append_field(out, "min", m.min);
        append_field(out, "max", m.max);
        append_field(out, "mean", m.mean);
        append_field(out, "p50",
                     tel::histogram_quantile(m.bounds, m.buckets, m.min, m.max, 0.50));
        append_field(out, "p99",
                     tel::histogram_quantile(m.bounds, m.buckets, m.min, m.max, 0.99));
        break;
    }
    out += '}';
  }
}

/// One `<name><suffix> <v>` sample line.
template <class T>
void append_sample(std::string& out, std::string_view name, T v, std::string_view suffix = {}) {
  out += name;
  out += suffix;
  out += ' ';
  append_number(out, v);
  out += '\n';
}

/// `# TYPE <name><suffix> <type>` and its one sample line.
template <class T>
void append_family(std::string& out, std::string_view name, std::string_view type, T v,
                   std::string_view suffix = {}) {
  out += "# TYPE ";
  out += name;
  out += suffix;
  out += ' ';
  out += type;
  out += '\n';
  append_sample(out, name, v, suffix);
}

/// A counter family with one `<family>{cause="<c>"} <v>` sample per cause.
void append_cause_family(std::string& out, std::string_view family,
                         const cause_array& by_cause) {
  out += "# TYPE ";
  out += family;
  out += " counter\n";
  for (std::size_t c = 0; c < n_causes; ++c) {
    out += family;
    out += "{cause=\"";
    append_label_value(out, to_string(static_cast<cause>(c)));
    out += "\"} ";
    append_double(out, by_cause[c]);
    out += '\n';
  }
}

/// One ledger cell as a JSON entry object.
void append_json_cell(std::string& out, const charge_key& key, const cause_array& by_cause) {
  out += "{\"node\":\"";
  tel::append_json_escaped(out, key.node);
  out += "\",\"device\":\"";
  tel::append_json_escaped(out, key.device);
  out += "\",\"job\":\"";
  tel::append_json_escaped(out, key.job);
  out += "\",\"kernel\":\"";
  tel::append_json_escaped(out, key.kernel);
  out += '"';
  append_field(out, "total_j", cell_total(by_cause));
  out += ",\"by_cause\":";
  append_cause_object(out, by_cause, /*nonzero_only=*/true);
  out += '}';
}

/// One ledger cell as a synergy_energy_joules sample line per nonzero cause.
void append_prometheus_cell(std::string& out, const charge_key& key,
                            const cause_array& by_cause) {
  for (std::size_t c = 0; c < n_causes; ++c) {
    if (by_cause[c] == 0.0) continue;
    out += "synergy_energy_joules{node=\"";
    append_label_value(out, key.node);
    out += "\",device=\"";
    append_label_value(out, key.device);
    out += "\",job=\"";
    append_label_value(out, key.job);
    out += "\",kernel=\"";
    append_label_value(out, key.kernel);
    out += "\",cause=\"";
    append_label_value(out, to_string(static_cast<cause>(c)));
    out += "\"} ";
    append_double(out, by_cause[c]);
    out += '\n';
  }
}

}  // namespace

std::string render_json(const energy_ledger& ledger, const slo_watchdog* watchdog,
                        const snapshot_options& options) {
  std::string out;
  out.reserve(4096);
  out += "{\"schema\":\"synergy.obs.snapshot/v1\",\"source\":\"";
  tel::append_json_escaped(out, options.source);
  out += '"';
  append_field(out, "sequence", options.sequence);
  append_field(out, "time_s", options.time_s);

  // The ledger section is one read: its totals, entries and series come
  // from the same ledger state. The alerts and metrics are read after it.
  ledger.read([&out](const energy_ledger::view& v) {
    out += ",\"ledger\":{\"total_j\":";
    append_double(out, v.total_j());
    append_field(out, "charges", v.charges());
    out += ",\"by_cause\":";
    append_cause_object(out, v.totals_by_cause(), /*nonzero_only=*/false);
    out += ",\"entries\":[";
    v.append_cells(out, cell_format::json, append_json_cell, ",");
    out += "],\"series\":[";
    bool first = true;
    for (const auto& s : v.series()) {
      if (!first) out += ',';
      first = false;
      out += "{\"t_s\":";
      append_double(out, s.t_s);
      append_field(out, "total_j", s.total_j);
      append_field(out, "charges", s.charges);
      out += ",\"by_cause\":";
      append_cause_object(out, s.by_cause, /*nonzero_only=*/true);
      out += '}';
    }
    out += "]}";
  });

  if (options.econ.enabled) {
    const auto& ec = options.econ;
    out += ",\"econ\":{\"cost_usd\":";
    append_double(out, ec.cost_usd);
    append_field(out, "capex_usd", ec.capex_usd);
    append_field(out, "carbon_g", ec.carbon_g);
    append_field(out, "cost_per_job_usd", ec.cost_per_job_usd);
    append_field(out, "carbon_per_job_g", ec.carbon_per_job_g);
    append_field(out, "jobs_completed", ec.jobs_completed);
    append_field(out, "attributed_cost_usd", ec.attributed_cost_usd);
    out += ",\"cost_by_cause\":";
    append_cause_object(out, ec.cost_by_cause, /*nonzero_only=*/false);
    append_field(out, "attributed_carbon_g", ec.attributed_carbon_g);
    out += ",\"carbon_by_cause\":";
    append_cause_object(out, ec.carbon_by_cause, /*nonzero_only=*/false);
    out += '}';
  }

  out += ",\"alerts\":[";
  if (watchdog) {
    bool first = true;
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
  ledger.read([&out](const energy_ledger::view& v) {
    v.append_cells(out, cell_format::prometheus, append_prometheus_cell, {});
    append_cause_family(out, "synergy_energy_cause_joules", v.totals_by_cause());
    append_family(out, "synergy_energy_total_joules", "counter", v.total_j());
    append_family(out, "synergy_obs_ledger_charges_total", "counter", v.charges());
  });
  append_family(out, "synergy_obs_snapshot_sequence", "counter", options.sequence);
  append_family(out, "synergy_obs_snapshot_time_seconds", "gauge", options.time_s);

  if (options.econ.enabled) {
    const auto& ec = options.econ;
    append_family(out, "synergy_econ_cost_usd", "gauge", ec.cost_usd);
    append_family(out, "synergy_econ_capex_usd", "gauge", ec.capex_usd);
    append_family(out, "synergy_econ_carbon_grams", "gauge", ec.carbon_g);
    append_family(out, "synergy_econ_cost_per_job_usd", "gauge", ec.cost_per_job_usd);
    append_family(out, "synergy_econ_carbon_per_job_grams", "gauge", ec.carbon_per_job_g);
    append_cause_family(out, "synergy_econ_cause_cost_usd", ec.cost_by_cause);
    append_cause_family(out, "synergy_econ_cause_carbon_grams", ec.carbon_by_cause);
  }

  if (!options.include_metrics) return out;
  std::string name;
  for (const auto& m : tel::metrics_registry::instance().snapshot()) {
    // Same volatile filter as the JSON document: wall-clock-valued
    // instruments would break the workflow's .prom byte-diffs.
    if (is_volatile(options, m.name)) continue;
    name.assign("synergy_");
    append_metric_name(name, m.name);
    switch (m.type) {
      case tel::metric_snapshot::kind::counter:
        append_family(out, name, "counter", m.value);
        break;
      case tel::metric_snapshot::kind::gauge:
        append_family(out, name, "gauge", m.value);
        break;
      case tel::metric_snapshot::kind::histogram: {
        out += "# TYPE ";
        out += name;
        out += " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < m.buckets.size(); ++i) {
          cumulative += m.buckets[i];
          out += name;
          out += "_bucket{le=\"";
          if (i < m.bounds.size())
            append_double(out, m.bounds[i]);
          else
            out += "+Inf";
          out += "\"} ";
          append_number(out, cumulative);
          out += '\n';
        }
        append_sample(out, name, m.sum, "_sum");
        append_sample(out, name, m.count, "_count");
        // Quantile companions: p50/p99 as gauges beside the buckets.
        append_family(out, name, "gauge",
                      tel::histogram_quantile(m.bounds, m.buckets, m.min, m.max, 0.50), "_p50");
        append_family(out, name, "gauge",
                      tel::histogram_quantile(m.bounds, m.buckets, m.min, m.max, 0.99), "_p99");
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

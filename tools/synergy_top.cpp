/// synergy_top — terminal dashboard over an observability snapshot.
///
/// Reads the JSON document `synergy_cluster --obs-out PREFIX` (or
/// synergy_trace) rewrites on every scrape tick and renders the
/// energy-attribution ledger the way `top` renders processes: totals,
/// per-cause shares, the hungriest nodes, and the tail of fired SLO alerts.
/// Because the exporter writes atomically, a `--watch` loop never sees a
/// torn document — either the previous snapshot or the next one.
///
/// Usage: synergy_top SNAPSHOT.json [options]
///   --watch S        re-read and re-render every S wall seconds
///   --iterations N   stop after N renders (default: 1, or unbounded
///                    with --watch)
///   --top K          rows in the per-node table (default 8)
///   --no-clear       do not clear the screen between renders
///   --check          validate instead of render: schema tag, required
///                    sections, per-cause attribution summing to the
///                    ledger total within 0.1%, and — when the exporter ran
///                    with --econ — the cost/carbon cause splits summing to
///                    their attributed totals under the same tolerance;
///                    exit 0 when sound, 2 on a violation, 1 on a
///                    read/parse error
///
/// Usage errors (unknown flag, malformed value, missing path) print the
/// usage line to stderr and exit 2.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "synergy/common/parse.hpp"
#include "synergy/obs/json.hpp"
#include "synergy/obs/snapshot.hpp"

namespace obs = synergy::obs;

namespace {

constexpr const char* k_schema = "synergy.obs.snapshot/v1";

int usage(int code) {
  (code ? std::cerr : std::cout)
      << "usage: synergy_top SNAPSHOT.json [--watch S] [--iterations N]\n"
         "                   [--top K] [--no-clear] [--check]\n";
  return code;
}

bool read_file(const std::string& path, std::string& out, std::string& err) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    err = "cannot read " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  out = text.str();
  return true;
}

/// Validate one snapshot document. Returns 0 when sound; fills `why` and
/// returns 2 on a structural or conservation violation.
int check_snapshot(const obs::json::value& doc, std::string& why) {
  const auto fail = [&](std::string msg) {
    why = std::move(msg);
    return 2;
  };
  if (!doc.is_object()) return fail("top-level value is not an object");
  if (doc.string_or("schema", "") != k_schema)
    return fail("schema is not \"" + std::string{k_schema} + "\"");
  const obs::json::value* ledger = doc.find("ledger");
  if (!ledger || !ledger->is_object()) return fail("missing \"ledger\" object");
  for (const char* key : {"alerts", "metrics"}) {
    const obs::json::value* v = doc.find(key);
    if (!v || !v->is_array()) return fail("missing \"" + std::string{key} + "\" array");
  }
  const obs::json::value* by_cause = ledger->find("by_cause");
  if (!by_cause || !by_cause->is_object()) return fail("missing \"ledger.by_cause\" object");
  const obs::json::value* entries = ledger->find("entries");
  if (!entries || !entries->is_array()) return fail("missing \"ledger.entries\" array");

  const double total = ledger->number_or("total_j", -1.0);
  if (total < 0.0) return fail("missing or negative \"ledger.total_j\"");

  // The acceptance contract: every attributed joule lands in exactly one
  // cause bucket, so the cause totals must reproduce the ledger total to
  // within 0.1% (float accumulation is the only slack).
  double cause_sum = 0.0;
  for (const auto& [name, v] : by_cause->as_object()) {
    if (!v.is_number()) return fail("by_cause[\"" + name + "\"] is not a number");
    if (v.as_number() < 0.0) return fail("by_cause[\"" + name + "\"] is negative");
    cause_sum += v.as_number();
  }
  const double tolerance = 1e-3 * std::max(total, 1e-9);
  if (std::abs(cause_sum - total) > tolerance)
    return fail("by_cause sums to " + obs::format_double(cause_sum) +
                " J but ledger.total_j is " + obs::format_double(total) +
                " J (off by more than 0.1%)");

  double entry_sum = 0.0;
  for (const auto& e : entries->as_array()) {
    if (!e.is_object()) return fail("ledger.entries element is not an object");
    for (const char* key : {"node", "device", "job", "kernel"}) {
      const obs::json::value* v = e.find(key);
      if (!v || !v->is_string())
        return fail("ledger entry missing string field \"" + std::string{key} + "\"");
    }
    entry_sum += e.number_or("total_j", 0.0);
  }
  if (std::abs(entry_sum - total) > tolerance)
    return fail("ledger.entries sum to " + obs::format_double(entry_sum) +
                " J but ledger.total_j is " + obs::format_double(total) + " J");

  // The econ block is optional (exporter ran with --econ); when present its
  // cause splits carry the same conservation contract as the ledger.
  if (const obs::json::value* econ = doc.find("econ"); econ) {
    if (!econ->is_object()) return fail("\"econ\" is not an object");
    const auto check_split = [&](const char* split, const char* total_key,
                                 const char* unit) -> int {
      const obs::json::value* by = econ->find(split);
      if (!by || !by->is_object())
        return fail("missing \"econ." + std::string{split} + "\" object");
      const double attributed = econ->number_or(total_key, -1.0);
      if (attributed < 0.0)
        return fail("missing or negative \"econ." + std::string{total_key} + "\"");
      double sum = 0.0;
      for (const auto& [name, v] : by->as_object()) {
        if (!v.is_number())
          return fail("econ." + std::string{split} + "[\"" + name + "\"] is not a number");
        if (v.as_number() < 0.0)
          return fail("econ." + std::string{split} + "[\"" + name + "\"] is negative");
        sum += v.as_number();
      }
      const double tol = 1e-3 * std::max(attributed, 1e-9);
      if (std::abs(sum - attributed) > tol)
        return fail("econ." + std::string{split} + " sums to " + obs::format_double(sum) +
                    " " + unit + " but econ." + total_key + " is " +
                    obs::format_double(attributed) + " " + unit + " (off by more than 0.1%)");
      return 0;
    };
    if (const int rc = check_split("cost_by_cause", "attributed_cost_usd", "USD"); rc != 0)
      return rc;
    if (const int rc = check_split("carbon_by_cause", "attributed_carbon_g", "g"); rc != 0)
      return rc;
  }
  return 0;
}

std::string fixed1(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

std::string fixed3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

void render(const obs::json::value& doc, const obs::json::value* prev, std::size_t top_k,
            std::ostream& out) {
  const obs::json::value* ledger = doc.find("ledger");
  const double total = ledger ? ledger->number_or("total_j", 0.0) : 0.0;
  const double charges = ledger ? ledger->number_or("charges", 0.0) : 0.0;
  const double seq = doc.number_or("sequence", 0.0);

  out << "synergy_top — " << doc.string_or("source", "?") << "  seq "
      << static_cast<std::uint64_t>(seq) << "  t=" << fixed1(doc.number_or("time_s", 0.0))
      << "s\n";
  out << "energy: " << fixed3(total) << " J attributed across "
      << static_cast<std::uint64_t>(charges) << " charge(s)";
  if (prev) {
    const obs::json::value* pl = prev->find("ledger");
    const double dt = doc.number_or("time_s", 0.0) - prev->number_or("time_s", 0.0);
    const double de = total - (pl ? pl->number_or("total_j", 0.0) : 0.0);
    out << "   Δ+" << fixed3(de) << " J";
    if (dt > 0.0) out << " (" << fixed1(de / dt) << " W avg)";
    out << " since seq " << static_cast<std::uint64_t>(prev->number_or("sequence", 0.0));
  }
  out << "\n\n";

  if (const obs::json::value* by_cause = ledger ? ledger->find("by_cause") : nullptr;
      by_cause && by_cause->is_object()) {
    std::vector<std::pair<std::string, double>> causes;
    for (const auto& [name, v] : by_cause->as_object())
      if (v.is_number() && v.as_number() > 0.0) causes.emplace_back(name, v.as_number());
    std::sort(causes.begin(), causes.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    out << "  cause                   joules    share\n";
    for (const auto& [name, j] : causes) {
      const obs::json::value* pv =
          prev && prev->find("ledger") ? prev->find("ledger")->find("by_cause") : nullptr;
      const double dj = j - (pv ? pv->number_or(name, 0.0) : j);
      out << "  " << name << std::string(name.size() < 20 ? 20 - name.size() : 1, ' ')
          << fixed3(j) << "  " << fixed1(total > 0.0 ? 100.0 * j / total : 0.0) << "%";
      if (prev && dj != 0.0) out << "  Δ+" << fixed3(dj);
      out << '\n';
    }
    if (causes.empty()) out << "  (no energy attributed yet)\n";
    out << '\n';
  }

  if (const obs::json::value* entries = ledger ? ledger->find("entries") : nullptr;
      entries && entries->is_array() && !entries->as_array().empty()) {
    std::map<std::string, double> by_node;
    for (const auto& e : entries->as_array())
      by_node[e.string_or("node", "?")] += e.number_or("total_j", 0.0);
    std::vector<std::pair<std::string, double>> nodes{by_node.begin(), by_node.end()};
    std::sort(nodes.begin(), nodes.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    out << "  node                    joules    share   (top " << top_k << " of "
        << nodes.size() << ")\n";
    for (std::size_t i = 0; i < std::min(top_k, nodes.size()); ++i)
      out << "  " << nodes[i].first
          << std::string(nodes[i].first.size() < 20 ? 20 - nodes[i].first.size() : 1, ' ')
          << fixed3(nodes[i].second) << "  "
          << fixed1(total > 0.0 ? 100.0 * nodes[i].second / total : 0.0) << "%\n";
    out << '\n';
  }

  if (const obs::json::value* econ = doc.find("econ"); econ && econ->is_object()) {
    out << "econ: $" << fixed3(econ->number_or("cost_usd", 0.0)) << " total (capex $"
        << fixed3(econ->number_or("capex_usd", 0.0)) << "), "
        << fixed1(econ->number_or("carbon_g", 0.0)) << " gCO2   per job: $"
        << fixed3(econ->number_or("cost_per_job_usd", 0.0)) << " / "
        << fixed1(econ->number_or("carbon_per_job_g", 0.0)) << " g\n";
    const obs::json::value* cost_by = econ->find("cost_by_cause");
    const obs::json::value* carbon_by = econ->find("carbon_by_cause");
    if (cost_by && cost_by->is_object()) {
      std::vector<std::pair<std::string, double>> rows;
      for (const auto& [name, v] : cost_by->as_object())
        if (v.is_number() && v.as_number() > 0.0) rows.emplace_back(name, v.as_number());
      std::sort(rows.begin(), rows.end(),
                [](const auto& a, const auto& b) { return a.second > b.second; });
      const double attributed = econ->number_or("attributed_cost_usd", 0.0);
      if (!rows.empty()) out << "  cause                 cost_usd    share  carbon_g\n";
      for (const auto& [name, usd] : rows) {
        out << "  " << name << std::string(name.size() < 20 ? 20 - name.size() : 1, ' ')
            << fixed3(usd) << "  "
            << fixed1(attributed > 0.0 ? 100.0 * usd / attributed : 0.0) << "%  "
            << fixed1(carbon_by && carbon_by->is_object() ? carbon_by->number_or(name, 0.0)
                                                          : 0.0)
            << '\n';
      }
      if (rows.empty()) out << "  (no cost attributed yet)\n";
    }
    out << '\n';
  }

  if (const obs::json::value* alerts = doc.find("alerts"); alerts && alerts->is_array()) {
    const auto& a = alerts->as_array();
    out << "alerts: " << a.size() << " fired";
    if (!a.empty()) {
      out << " (last " << std::min<std::size_t>(5, a.size()) << ")";
      out << '\n';
      for (std::size_t i = a.size() > 5 ? a.size() - 5 : 0; i < a.size(); ++i)
        out << "  t=" << fixed1(a[i].number_or("t_s", 0.0)) << "s  "
            << a[i].string_or("kind", "?") << " = " << fixed3(a[i].number_or("value", 0.0))
            << "  (rule: " << a[i].string_or("rule", "?") << ")\n";
    } else {
      out << '\n';
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  double watch_s = 0.0;
  long long iterations = -1;
  std::size_t top_k = 8;
  bool clear = true;
  bool check = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      using synergy::common::parse_number;
      if (arg == "--watch") watch_s = parse_number<double>(value(), arg);
      else if (arg == "--iterations") iterations = parse_number<long long>(value(), arg);
      else if (arg == "--top") top_k = parse_number<std::size_t>(value(), arg);
      else if (arg == "--no-clear") clear = false;
      else if (arg == "--check") check = true;
      else if (arg == "--help" || arg == "-h") return usage(0);
      else if (!arg.empty() && arg[0] == '-') {
        std::cerr << "error: unknown argument " << arg << '\n';
        return usage(2);
      } else if (path.empty()) path = arg;
      else {
        std::cerr << "error: more than one snapshot path\n";
        return usage(2);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return usage(2);
  }
  if (path.empty()) return usage(2);
  if (iterations < 0) iterations = watch_s > 0.0 ? -1 : 1;

  obs::json::value prev;
  bool have_prev = false;
  for (long long n = 0; iterations < 0 || n < iterations; ++n) {
    std::string text;
    std::string err;
    if (!read_file(path, text, err)) {
      std::cerr << "error: " << err << '\n';
      return 1;
    }
    auto doc = obs::json::parse(text);
    if (!doc.has_value()) {
      std::cerr << "error: " << path << ": " << doc.err().to_string() << '\n';
      return 1;
    }

    if (check) {
      std::string why;
      if (const int rc = check_snapshot(doc.value(), why); rc != 0) {
        std::cerr << "check failed: " << path << ": " << why << '\n';
        return rc;
      }
      std::cout << path << ": ok (schema " << k_schema << ", "
                << obs::format_double(doc.value().find("ledger")->number_or("total_j", 0.0))
                << " J attributed)\n";
      return 0;
    }

    if (clear && watch_s > 0.0) std::cout << "\x1b[2J\x1b[H";
    render(doc.value(), have_prev ? &prev : nullptr, top_k, std::cout);
    std::cout.flush();
    prev = std::move(doc.value());
    have_prev = true;

    if (watch_s > 0.0 && (iterations < 0 || n + 1 < iterations))
      std::this_thread::sleep_for(std::chrono::duration<double>(watch_s));
    else if (watch_s <= 0.0)
      break;
  }
  return 0;
}

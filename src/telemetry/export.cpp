#include "synergy/telemetry/export.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>
#include <string_view>

namespace synergy::telemetry {

namespace {

/// Shortest round-trippable formatting that is still valid JSON (no bare
/// NaN/Inf, which the trace-event spec does not allow).
std::string json_number(double v) {
  if (!(v == v)) return "0";                       // NaN
  if (v > 1.7e308 || v < -1.7e308) return "0";     // +-Inf
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

void write_args(std::ostream& os, const trace_event& e) {
  os << "\"args\":{";
  bool first = true;
  for (std::uint8_t i = 0; i < e.n_args; ++i) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(e.args[i].key) << "\":" << json_number(e.args[i].value);
  }
  if (e.str_key != nullptr) {
    if (!first) os << ',';
    os << '"' << json_escape(e.str_key) << "\":\"" << json_escape(e.str_value) << '"';
  }
  os << '}';
}

void write_metadata(std::ostream& os, std::uint32_t pid, const char* name) {
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
     << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
}

/// RFC-4180 quoting for the free-form CSV columns: inner quotes are
/// doubled, so names containing `"`, `,` or newlines survive a round trip
/// through any conforming CSV parser.
std::string csv_quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void append_json_escaped(std::string& out, std::string_view s) {
  std::size_t run = 0;  // start of the bytes not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        constexpr char hex[] = "0123456789abcdef";
        out += "\\u00";
        out += hex[c >> 4];
        out += hex[c & 0xF];
      }
    }
  }
  out.append(s, run, s.size() - run);
}

std::string json_escape(std::string_view s) {
  std::string out;
  append_json_escaped(out, s);
  return out;
}

void write_chrome_trace(std::ostream& os, const std::vector<trace_event>& events) {
  os << "{\"traceEvents\":[\n";
  write_metadata(os, trace_event::host_pid, "synergy host");
  os << ",\n";
  write_metadata(os, trace_event::device_pid, "gpusim device (virtual time)");
  os << ",\n";
  write_metadata(os, trace_event::cluster_pid, "cluster (virtual time)");
  for (const auto& e : events) {
    os << ",\n{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\"" << to_string(e.cat)
       << "\",\"ph\":\"" << e.phase << "\",\"ts\":" << json_number(e.ts_us);
    if (e.phase == 'X') os << ",\"dur\":" << json_number(e.dur_us);
    if (e.phase == 'i') os << ",\"s\":\"t\"";  // instant scope: thread
    os << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid << ',';
    write_args(os, e);
    os << '}';
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void write_csv(std::ostream& os, const std::vector<trace_event>& events) {
  os << "ts_us,dur_us,pid,tid,category,phase,name,args\n";
  for (const auto& e : events) {
    os << json_number(e.ts_us) << ',' << json_number(e.dur_us) << ',' << e.pid << ','
       << e.tid << ',' << to_string(e.cat) << ',' << e.phase << ',';
    // CSV-quote the free-form columns; args are key=value joined with ';'.
    // Quoting must double inner quotes, or a span name like `foo "bar"`
    // silently corrupts every column after it for CSV consumers.
    os << csv_quote(e.name) << ',';
    std::string args;
    for (std::uint8_t i = 0; i < e.n_args; ++i) {
      if (i) args += ';';
      args += e.args[i].key;
      args += '=';
      args += json_number(e.args[i].value);
    }
    if (e.str_key != nullptr) {
      if (e.n_args) args += ';';
      args += e.str_key;
      args += '=';
      args += e.str_value;
    }
    os << csv_quote(args) << '\n';
  }
}

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out, trace_recorder::instance().snapshot());
  return static_cast<bool>(out);
}

bool write_csv_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_csv(out, trace_recorder::instance().snapshot());
  return static_cast<bool>(out);
}

}  // namespace synergy::telemetry

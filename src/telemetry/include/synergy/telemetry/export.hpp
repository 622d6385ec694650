#pragma once

/// \file export.hpp
/// Trace and metrics exporters.
///
/// The Chrome exporter emits the trace-event JSON object format
/// ({"traceEvents": [...]}) understood by chrome://tracing and Perfetto:
/// one 'X' (complete) or 'i' (instant) event per recorded trace_event, with
/// the category as "cat", numeric and string args under "args", plus
/// process_name metadata events labelling the host and simulated-device
/// timelines. The CSV exporter writes the same events flat, one row each,
/// for spreadsheet-style analysis.

#include <iosfwd>
#include <string>
#include <vector>

#include "synergy/telemetry/trace.hpp"

namespace synergy::telemetry {

/// Append `s` to `out` JSON-escaped: quotes, backslashes and control
/// characters (`\n`, `\r`, `\t`, else `\u00xx`); every other byte verbatim.
void append_json_escaped(std::string& out, std::string_view s);

/// `s` JSON-escaped, as append_json_escaped() writes it.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Write `events` as Chrome trace-event JSON.
void write_chrome_trace(std::ostream& os, const std::vector<trace_event>& events);

/// Write `events` as CSV: ts_us,dur_us,pid,tid,category,phase,name,args.
void write_csv(std::ostream& os, const std::vector<trace_event>& events);

/// Snapshot the global recorder and write it to `path` as Chrome JSON.
/// Returns false if the file could not be opened.
bool write_chrome_trace_file(const std::string& path);

/// Snapshot the global recorder and write it to `path` as CSV.
bool write_csv_file(const std::string& path);

}  // namespace synergy::telemetry

#include "synergy/telemetry/telemetry.hpp"

#include "synergy/common/log.hpp"

namespace synergy::telemetry {

#if SYNERGY_TELEMETRY_ENABLED
namespace {
bool g_tap_installed = false;
common::logger::tap_fn g_previous_tap;
}  // namespace
#endif

bool install_log_tap() {
#if SYNERGY_TELEMETRY_ENABLED
  if (g_tap_installed) return false;
  g_tap_installed = true;
  g_previous_tap = common::logger::instance().set_tap(
      [](common::log_level level, const std::string& message,
         const common::log_fields& fields) {
        if (!enabled()) return;
        trace_event e;
        e.name = message;
        e.cat = category::log;
        e.phase = 'i';
        e.ts_us = trace_recorder::now_us();
        e.str_key = "level";
        // Structured fields ride along in the string arg so the exported
        // trace preserves them without risking dangling key pointers; so
        // does the full text of a message too long for the inline name.
        e.str_value = common::to_string(level);
        if (!fields.empty()) e.str_value += common::format_fields(fields);
        if (message.size() > trace_name::capacity)
          e.str_value += common::format_fields({{"message", message}});
        trace_recorder::instance().record(std::move(e));
      });
  return true;
#else
  return false;
#endif
}

void remove_log_tap() {
#if SYNERGY_TELEMETRY_ENABLED
  if (!g_tap_installed) return;
  common::logger::instance().set_tap(std::move(g_previous_tap));
  g_previous_tap = nullptr;
  g_tap_installed = false;
#endif
}

}  // namespace synergy::telemetry

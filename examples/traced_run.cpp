/// Tracing a SYnergy workload end to end.
///
/// Runs two benchmark kernels under an energy-saving target with telemetry
/// on, then shows the three observability surfaces the runtime exposes:
///   1. the metrics registry (counters/gauges/histograms, printed as a table),
///   2. the trace ring (span/instant events from every layer), and
///   3. the Chrome trace-event exporter -- load traced_run.trace.json in
///      chrome://tracing or https://ui.perfetto.dev to see host-side spans
///      (pid 1) next to the simulated device timeline (pid 2).
/// See tools/synergy_trace.cpp for the full-featured CLI version.

#include <cstdio>
#include <iostream>

#include "synergy/synergy.hpp"
#include "synergy/telemetry/export.hpp"
#include "synergy/telemetry/telemetry.hpp"
#include "synergy/workloads/benchmark.hpp"

namespace sm = synergy::metrics;
namespace sw = synergy::workloads;
namespace tel = synergy::telemetry;

int main() {
#if !SYNERGY_TELEMETRY_ENABLED
  std::printf("telemetry is compiled out (-DSYNERGY_TELEMETRY=OFF); the trace "
              "below will be empty.\n\n");
#endif
  tel::set_enabled(true);
  tel::trace_recorder::instance().clear();

  simsycl::device dev{synergy::gpusim::make_v100()};
  auto ctx = std::make_shared<synergy::context>(std::vector<simsycl::device>{dev});
  synergy::queue q{dev, ctx};
  q.set_target(sm::ES_50);

  // Application-level spans nest around the runtime's own instrumentation.
  {
    SYNERGY_SPAN(tel::category::other, "app.workload");
    for (const char* name : {"mat_mul", "sobel3"}) {
      SYNERGY_SPAN_VAR(span, tel::category::other, "app.kernel");
      span.str("benchmark", name);
      const auto e = sw::find(name).run(q);
      e.wait_and_throw();
      span.arg("energy_j", q.kernel_energy_consumption(e));
    }
  }
  SYNERGY_INSTANT(tel::category::other, "app.done",
                  {"total_energy_j", q.device_energy_consumption()});

  // Surface 1: aggregated metrics.
  std::printf("metrics registry:\n");
  tel::metrics_registry::instance().summary_table(std::cout);

  // Surface 2: the raw event ring.
  auto& rec = tel::trace_recorder::instance();
  std::printf("\ntrace ring: %zu events (capacity %zu, dropped %zu)\n", rec.size(),
              rec.capacity(), rec.dropped());
  for (const auto& e : rec.snapshot())
    std::printf("  [%c] pid=%u tid=%u ts=%10.1fus dur=%10.1fus %.*s\n", e.phase, e.pid, e.tid,
                e.ts_us, e.dur_us, static_cast<int>(e.name.size()), e.name.data());

  // Surface 3: Chrome trace-event JSON.
  const char* out = "traced_run.trace.json";
  if (!tel::write_chrome_trace_file(out)) {
    std::fprintf(stderr, "failed to write %s\n", out);
    return 1;
  }
  std::printf("\nwrote %s -- open it in chrome://tracing or ui.perfetto.dev\n", out);
  return 0;
}

#pragma once

/// \file snapshot.hpp
/// Snapshot exporter: ledger + metrics registry + alerts, rendered as
/// Prometheus text exposition format and machine-readable JSON.
///
/// Determinism contract: renderings of the same ledger/registry state are
/// byte-identical — floats print via std::to_chars (shortest round-trip),
/// map iteration is key-ordered, and wall-clock-valued instruments
/// (snapshot_options::volatile_metrics) are excluded from BOTH the JSON
/// document and the Prometheus exposition. This is what lets the workflow
/// fixture byte-compare .json and .prom snapshots across same-seed replays;
/// clear volatile_metrics to get the wall-clock instruments back.
///
/// File emission goes through common::atomic_write_file, so a reader
/// (synergy_top --watch) always sees a complete document, never a torn
/// half-write.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "synergy/common/error.hpp"
#include "synergy/obs/energy_ledger.hpp"
#include "synergy/obs/slo_watchdog.hpp"

namespace synergy::obs {

struct snapshot_options {
  /// Include the telemetry metrics registry in the rendering.
  bool include_metrics{true};
  /// Instruments measured on the host wall clock — nondeterministic across
  /// replays, so they are omitted from both renderings by default.
  std::vector<std::string> volatile_metrics{"planner.plan_latency_us"};
  /// Monotone snapshot counter; synergy_top uses it for interval diffs.
  std::uint64_t sequence{0};
  /// Virtual time of the snapshot (cluster clock seconds).
  double time_s{0.0};
  /// Emitting tool/run, recorded in the document.
  std::string source{"synergy"};
  /// Facility-economics figures of the emitting run, passed in as plain data
  /// (the obs plane stays econ-independent). Rendered only when `enabled`:
  /// an "econ" JSON object and synergy_econ_* Prometheus samples, with the
  /// per-cause splits carrying the same conservation contract as the ledger
  /// (sum over causes == attributed total, enforced by synergy_top --check).
  struct econ_block {
    bool enabled{false};
    double cost_usd{0.0};           ///< facility opex + amortised capex
    double capex_usd{0.0};          ///< amortised capex share
    double carbon_g{0.0};           ///< facility carbon
    double cost_per_job_usd{0.0};
    double carbon_per_job_g{0.0};
    double attributed_cost_usd{0.0};
    double attributed_carbon_g{0.0};
    cause_array cost_by_cause{};
    cause_array carbon_by_cause{};
    std::uint64_t jobs_completed{0};
  };
  econ_block econ{};
};

/// Append the shortest round-trip decimal rendering of a double
/// (std::to_chars); deterministic across platforms with IEEE-754 doubles.
/// Non-finite values render as 0 (JSON has no inf/nan).
void append_double(std::string& out, double v);

/// `v` as append_double() writes it.
[[nodiscard]] std::string format_double(double v);

/// The snapshot as one JSON document (schema "synergy.obs.snapshot/v1").
[[nodiscard]] std::string render_json(const energy_ledger& ledger,
                                      const slo_watchdog* watchdog,
                                      const snapshot_options& options = {});

/// The snapshot in Prometheus text exposition format.
[[nodiscard]] std::string render_prometheus(const energy_ledger& ledger,
                                            const snapshot_options& options = {});

/// Atomically write `<prefix>.json` and `<prefix>.prom`. Returns the first
/// failure (path + reason in the error message).
[[nodiscard]] common::status write_snapshot_files(const std::filesystem::path& prefix,
                                                  const energy_ledger& ledger,
                                                  const slo_watchdog* watchdog,
                                                  const snapshot_options& options = {});

}  // namespace synergy::obs

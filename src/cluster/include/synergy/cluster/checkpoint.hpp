#pragma once

/// \file checkpoint.hpp
/// Crash-safe checkpoint/resume for long cluster replays.
///
/// A month of Marconi-100-scale traffic is hours of wall clock; without
/// checkpoints any crash, OOM-kill, or preemption throws the whole replay
/// away. The simulator therefore serializes its *complete* state on a
/// periodic virtual-time cadence: the event heap itself (flat
/// {t, seq, kind, id, epoch} records, written as they stand and restored
/// verbatim), the node inventory, the queued and running jobs (the running
/// jobs are the GPU occupancy) and per-job results, each naming its job by
/// its trace row, the run counters
/// (the run_summary field table), both RNG streams mid-draw, the
/// drift/quarantine and plan-cache state of the guard chain, the obs energy
/// ledger, the SLO watchdog, and the metrics registry.
///
/// Artefacts ride the repository's sealed persistence stack: the payload is
/// wrapped by common::envelope (format magic + version + CRC-32 over the
/// payload) and written with common::atomic_write_file, so a torn write
/// leaves the previous checkpoint intact and any corruption is detected at
/// open time. Loads are fail-closed: a checkpoint that does not parse and
/// cross-validate completely (config fingerprint, trace CRC, structural
/// consistency, no GPU held twice, each job's phase agreeing with where it
/// sits, each subsystem's acceptance of its section) restores nothing,
/// neither in the simulator nor in the ledger, metrics registry, guard or
/// watchdog.
///
/// The payload layout is written once, in checkpoint.cpp: one
/// transfer(archive, record) per record type, instantiated by both the
/// writer and the reader, and one function for the section order. The
/// simulator keeps everything a run resets and a checkpoint carries in one
/// run_state struct, so a new per-run field is one member plus one token
/// in the section order.
///
/// Determinism contract: resuming from any checkpoint of a run produces
/// byte-identical final outputs (summary CSV, per-job table, obs JSON
/// snapshot, alerts JSONL) to the uninterrupted run of the same seed.
/// Floating-point state round-trips as IEEE-754 bit patterns, and pending
/// events keep their original (time, sequence) ranks, so every tie-break
/// falls the same way. Only the checkpoint tick and the crash injection are
/// left out; resume() re-arms them from the resuming simulator's options.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>

#include "synergy/common/error.hpp"

namespace synergy {
class guarded_planner;
class plan_service;
}  // namespace synergy

namespace synergy::cluster {

/// Envelope kind sealing every checkpoint artefact.
inline constexpr std::string_view checkpoint_kind = "cluster_checkpoint";
/// Envelope version (enforced as an upper bound on open). The payload names
/// its own schema on its first line, `synergy_ckpt 4`; the parser rejects
/// any other schema as "unknown payload schema version".
inline constexpr unsigned checkpoint_version = 1;
/// Exit code of the crash-injection harness (checkpoint_options::crash_at_s)
/// — distinct from the tool's operational (1) and usage (2) failures so the
/// workflow fixture can tell an injected crash from a real one.
inline constexpr int crash_injection_exit_code = 42;

struct checkpoint_options {
  /// Checkpoint cadence on the cluster's virtual clock; <= 0 disables
  /// periodic checkpointing (restore/resume still work).
  double interval_s{0.0};
  /// Directory receiving ckpt-NNNNNN.synergy artefacts.
  std::filesystem::path dir;
  /// Crash-injection harness: when >= 0, the process calls _Exit with
  /// crash_injection_exit_code at this virtual time. Tests only.
  double crash_at_s{-1.0};
  /// The guard chain the scheduling policy plans through (nullptr when the
  /// run is table/default-planned). Serialized: generation, tier counters,
  /// drift monitor rolling state.
  std::shared_ptr<guarded_planner> guard;
  /// The plan service fronting `guard` (nullptr without one). Serialized:
  /// every current-generation cache entry — cache hits bypass the chain, so
  /// a cold cache would replay different counter sequences.
  std::shared_ptr<plan_service> service;
};

/// File name for checkpoint `index`: "ckpt-000042.synergy" (zero-padded so
/// lexical order is numeric order).
[[nodiscard]] std::string checkpoint_file_name(std::uint64_t index);

/// Highest-numbered checkpoint artefact in `dir`. Errors: missing/unreadable
/// directory, or no checkpoint files in it.
[[nodiscard]] common::result<std::filesystem::path> latest_checkpoint(
    const std::filesystem::path& dir);

/// Read + unseal one checkpoint artefact, fail-closed: any envelope fault
/// (wrong magic, kind, version skew, truncation, CRC mismatch) is an error
/// naming the fault — never a partial payload.
[[nodiscard]] common::result<std::string> read_checkpoint_payload(
    const std::filesystem::path& file);

/// Seal `payload` and atomically write it to `file`.
[[nodiscard]] common::status write_checkpoint_file(const std::filesystem::path& file,
                                                   std::string_view payload);

}  // namespace synergy::cluster

#pragma once

/// \file job_trace.hpp
/// SLURM-style job traces: a synthetic generator and a CSV round-trip.
///
/// A trace is the replayable input of the cluster simulator — the analogue
/// of a Marconi-100 accounting dump. The generator draws Poisson arrivals
/// and configurable job-size / duration / energy-target mixes from the
/// suite's 23 SYCL-bench kernel profiles through an explicitly seeded
/// pcg32, and the seed is recorded in the CSV header, so any run can be
/// regenerated or replayed bit-identically from either the config or the
/// file.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace synergy::cluster {

/// One job of a trace (sacct row analogue). `kernel` names a benchmark of
/// the 23-kernel suite; the job launches it `iterations` times on each of
/// its `n_gpus` GPUs (weak scaling, as in the paper's Sec. 8.4 apps).
struct traced_job {
  int id{0};
  std::string name{"job"};
  double submit_s{0.0};    ///< arrival on the cluster timeline
  int n_gpus{1};           ///< GPUs requested (gang-scheduled)
  std::string kernel;      ///< benchmark name (suite kernel profile)
  double work_items{1.0};  ///< work items per launch
  int iterations{1};       ///< launches per GPU
  /// Energy target resolved at placement ("default" = driver clocks).
  std::string target{"default"};
  /// Econ columns (PR 10): a deferrable job may be shifted by a cost-aware
  /// policy into a cheaper/cleaner price window; `deadline_s` bounds the
  /// shift (latest acceptable completion on the cluster timeline, < 0 = no
  /// deadline). Both default so 8-column traces parse unchanged.
  bool deferrable{false};
  double deadline_s{-1.0};

  friend bool operator==(const traced_job&, const traced_job&) = default;
};

struct job_trace {
  std::uint64_t seed{0};  ///< generator seed (0 for hand-written traces)
  std::vector<traced_job> jobs;

  /// Serialise: a `# synergy-cluster-trace v1 seed=S jobs=N` comment line,
  /// a column-header row, then one row per job.
  [[nodiscard]] std::string to_csv() const;

  /// Inverse of to_csv(); throws std::invalid_argument on malformed input,
  /// including a trace validate_trace() rejects.
  [[nodiscard]] static job_trace from_csv(const std::string& text);

  friend bool operator==(const job_trace&, const job_trace&) = default;
};

/// Check that a replay can run `trace`: ids are unique (a replay's
/// checkpoints and reports name each job by it) and every row has
/// n_gpus >= 1, iterations >= 1, work_items > 0, submit_s >= 0 and a
/// deadline (when set) no earlier than its submit time. Throws
/// std::invalid_argument naming the first row that breaks a row rule, or
/// else a repeated id (the smallest). The loader, run() and restore all
/// call it, so all three reject the same traces.
void validate_trace(const job_trace& trace);

/// Mix knobs of the synthetic generator. Arrivals are Poisson
/// (exponential inter-arrival times of mean `mean_interarrival_s`); job
/// sizes, durations (iteration counts), kernels, and targets are drawn
/// uniformly from their mix vectors.
struct trace_config {
  std::size_t n_jobs{1000};
  double mean_interarrival_s{2.0};
  /// GPU-count mix; repeated entries weight a size (default: mostly small
  /// jobs with a tail of 4- and 8-GPU gangs, as real HPC queues show).
  std::vector<int> gpu_mix{1, 1, 1, 1, 2, 2, 4, 8};
  /// Launches per GPU; with the default work size a job runs seconds to a
  /// couple of minutes, loading a 64-GPU cluster to ~60% at the default
  /// inter-arrival time (queues form, but the system is stable).
  int min_iterations{150};
  int max_iterations{1200};
  double work_items{1 << 28};
  /// Energy-target mix stamped on jobs ("default" disables tuning).
  std::vector<std::string> target_mix{"ES_50"};
  /// Kernel names to draw from; empty = the full 23-benchmark suite.
  std::vector<std::string> kernels;
  std::uint64_t seed{42};
  /// Fraction of jobs stamped deferrable (0 draws nothing from the rng, so
  /// pre-econ traces regenerate bit-identically from the same seed).
  double deferrable_fraction{0.0};
  /// Deadline slack for deferrable jobs: deadline_s lands uniformly in
  /// submit_s + [0.5, 1.5] x this.
  double deadline_slack_s{120.0};
};

/// Generate a trace; deterministic in `config` (same config, same bytes).
[[nodiscard]] job_trace generate_trace(const trace_config& config);

}  // namespace synergy::cluster

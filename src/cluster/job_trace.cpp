#include "synergy/cluster/job_trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "synergy/common/csv.hpp"
#include "synergy/common/rng.hpp"
#include "synergy/workloads/benchmark.hpp"

namespace synergy::cluster {

namespace {

/// Shortest representation that round-trips a double exactly (the trace is
/// a replay artefact: load(save(t)) must equal t bit-for-bit, which the
/// display-precision common::csv_writer::num does not guarantee).
std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

constexpr const char* header_magic = "# synergy-cluster-trace v1";

/// The row rules validate_trace() enforces (job_trace.hpp).
void check_job_row(const traced_job& job) {
  if (std::isnan(job.deadline_s) || (job.deadline_s >= 0.0 && !(job.deadline_s >= job.submit_s)))
    throw std::invalid_argument("job_trace: deadline before submit for id " +
                                std::to_string(job.id));
  if (job.n_gpus < 1 || job.iterations < 1 || !(job.work_items > 0.0) ||
      !std::isfinite(job.work_items) || !(job.submit_s >= 0.0) || !std::isfinite(job.submit_s))
    throw std::invalid_argument("job_trace: invalid job row for id " + std::to_string(job.id));
}

/// An integer column, all of it: std::stoi alone reads "1x" as 1.
int parse_int(const std::string& field, const char* column) {
  std::size_t end = 0;
  const int v = std::stoi(field, &end);
  if (end != field.size())
    throw std::invalid_argument(std::string("job_trace: ") + column + " is not an integer: " +
                                field);
  return v;
}

}  // namespace

std::string job_trace::to_csv() const {
  std::ostringstream os;
  os << header_magic << " seed=" << seed << " jobs=" << jobs.size() << '\n';
  common::csv_writer csv{os};
  csv.row({"id", "name", "submit_s", "n_gpus", "kernel", "work_items", "iterations", "target",
           "deferrable", "deadline_s"});
  for (const auto& j : jobs) {
    csv.row({std::to_string(j.id), j.name, exact(j.submit_s), std::to_string(j.n_gpus),
             j.kernel, exact(j.work_items), std::to_string(j.iterations), j.target,
             j.deferrable ? "1" : "0", exact(j.deadline_s)});
  }
  return os.str();
}

job_trace job_trace::from_csv(const std::string& text) {
  // Quote-aware record splitting: survives CRLF line endings, a missing
  // trailing newline, and newlines embedded in quoted job names — a getline
  // loop would split the latter mid-record and corrupt the row.
  const auto records = common::split_csv_records(text);
  if (records.empty() || records.front().rfind(header_magic, 0) != 0)
    throw std::invalid_argument("job_trace: missing trace header line");

  job_trace trace;
  const std::string& header = records.front();
  const auto seed_pos = header.find("seed=");
  if (seed_pos == std::string::npos)
    throw std::invalid_argument("job_trace: header records no seed");
  trace.seed = std::stoull(header.substr(seed_pos + 5));

  bool saw_columns = false;
  for (std::size_t ri = 1; ri < records.size(); ++ri) {
    const std::string& line = records[ri];
    if (line.empty() || line[0] == '#') continue;
    if (!saw_columns) {  // column-header row
      saw_columns = true;
      continue;
    }
    const auto f = common::parse_csv_line(line);
    // 8 fields is the pre-econ row shape; the two econ columns default so
    // existing traces parse unchanged.
    if (f.size() != 8 && f.size() != 10)
      throw std::invalid_argument("job_trace: expected 8 or 10 fields, got " +
                                  std::to_string(f.size()));
    traced_job j;
    j.id = parse_int(f[0], "id");
    j.name = f[1];
    j.submit_s = std::stod(f[2]);
    j.n_gpus = parse_int(f[3], "n_gpus");
    j.kernel = f[4];
    j.work_items = std::stod(f[5]);
    j.iterations = parse_int(f[6], "iterations");
    j.target = f[7];
    if (f.size() == 10) {
      if (f[8] != "0" && f[8] != "1")
        throw std::invalid_argument("job_trace: deferrable must be 0 or 1 for id " + f[0]);
      j.deferrable = f[8] == "1";
      j.deadline_s = std::stod(f[9]);
    }
    trace.jobs.push_back(std::move(j));
  }
  validate_trace(trace);
  return trace;
}

void validate_trace(const job_trace& trace) {
  std::vector<int> ids;
  ids.reserve(trace.jobs.size());
  for (const auto& job : trace.jobs) {
    check_job_row(job);
    ids.push_back(job.id);
  }
  std::sort(ids.begin(), ids.end());
  const auto repeat = std::adjacent_find(ids.begin(), ids.end());
  if (repeat != ids.end())
    throw std::invalid_argument("job_trace: repeated job id " + std::to_string(*repeat));
}

job_trace generate_trace(const trace_config& config) {
  if (config.n_jobs == 0) return {config.seed, {}};
  if (config.gpu_mix.empty() || config.target_mix.empty())
    throw std::invalid_argument("generate_trace: empty gpu or target mix");
  if (config.min_iterations < 1 || config.max_iterations < config.min_iterations)
    throw std::invalid_argument("generate_trace: bad iteration range");
  if (config.deferrable_fraction < 0.0 || config.deferrable_fraction > 1.0)
    throw std::invalid_argument("generate_trace: deferrable fraction outside [0, 1]");
  if (config.deferrable_fraction > 0.0 && !(config.deadline_slack_s > 0.0))
    throw std::invalid_argument("generate_trace: deadline slack must be > 0");

  const std::vector<std::string>& kernels =
      config.kernels.empty() ? workloads::names() : config.kernels;

  common::pcg32 rng{config.seed};
  job_trace trace;
  trace.seed = config.seed;
  trace.jobs.reserve(config.n_jobs);

  double t = 0.0;
  for (std::size_t i = 0; i < config.n_jobs; ++i) {
    // Poisson arrivals: exponential inter-arrival times.
    t += -config.mean_interarrival_s * std::log(1.0 - rng.uniform());
    traced_job j;
    j.id = static_cast<int>(i) + 1;
    j.kernel = kernels[rng.bounded(static_cast<std::uint32_t>(kernels.size()))];
    j.name = j.kernel + "_" + std::to_string(j.id);
    j.submit_s = t;
    j.n_gpus = config.gpu_mix[rng.bounded(static_cast<std::uint32_t>(config.gpu_mix.size()))];
    j.work_items = config.work_items;
    j.iterations =
        config.min_iterations +
        static_cast<int>(rng.bounded(
            static_cast<std::uint32_t>(config.max_iterations - config.min_iterations + 1)));
    j.target =
        config.target_mix[rng.bounded(static_cast<std::uint32_t>(config.target_mix.size()))];
    if (config.deferrable_fraction > 0.0) {
      // Econ draws happen only when the feature is on: a pre-econ config
      // consumes the exact pre-econ rng sequence and regenerates the same
      // bytes.
      j.deferrable = rng.uniform() < config.deferrable_fraction;
      if (j.deferrable)
        j.deadline_s = j.submit_s + config.deadline_slack_s * (0.5 + rng.uniform());
    }
    trace.jobs.push_back(std::move(j));
  }
  return trace;
}

}  // namespace synergy::cluster

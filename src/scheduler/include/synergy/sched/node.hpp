#pragma once

/// \file node.hpp
/// Compute-node model of the cluster simulation.
///
/// A node owns its GPUs (simulated boards) and the vendor management
/// libraries over them, exactly as a Marconi-100 node owns four V100s
/// reachable through one NVML session. GRES tags mark node capabilities
/// (the paper tags frequency-scaling-capable nodes with `nvgpufreq`), and
/// the `nvml_available` flag models whether the vendor shared object can be
/// dlopen'd on that node (one of the plugin's prologue checks, Sec. 7.2).

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "synergy/context.hpp"

namespace synergy::sched {

struct node_config {
  std::string name{"node"};
  std::vector<std::string> gpus{"V100", "V100", "V100", "V100"};
  std::set<std::string> gres;
  bool nvml_available{true};
  /// Host (non-GPU) power draw while the node is up.
  double host_power_w{350.0};
};

class node {
 public:
  explicit node(node_config config);

  [[nodiscard]] const node_config& config() const { return config_; }
  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] bool has_gres(const std::string& tag) const {
    return config_.gres.count(tag) > 0;
  }

  /// The node's devices: one simulated board per GPU, devices()[i] built
  /// from the spec named config().gpus[i].
  [[nodiscard]] const std::vector<simsycl::device>& devices() const;

  /// The node's management session. Plugins act through it as root; job
  /// payloads act through it with the job user's identity (the controller
  /// swaps the identity around payload execution).
  [[nodiscard]] const std::shared_ptr<synergy::context>& ctx() const { return ctx_; }

  /// Total GPU energy consumed on this node so far (joules).
  [[nodiscard]] double gpu_energy() const;

  /// Power-saving state (SLURM can power down idle nodes, Sec. 2.3).
  [[nodiscard]] bool powered_down() const { return powered_down_; }
  void set_powered_down(bool down) { powered_down_ = down; }

  /// Number of jobs currently allocated on this node.
  [[nodiscard]] int running_jobs() const { return running_jobs_; }
  void add_job() { ++running_jobs_; }
  void remove_job() { --running_jobs_; }

 private:
  node_config config_;
  std::shared_ptr<synergy::context> ctx_;
  bool powered_down_{false};
  int running_jobs_{0};
};

}  // namespace synergy::sched

// The workload registry: one namespace that knows every runnable workload —
// the 8 STAMP-like profiles and the 4 open-loop traffic kernels — so the
// CLIs, the grid expander and run_experiment resolve names through a single
// table instead of each hard-coding stamp::benchmark_names().
//
// Traffic kernels are registered as "traffic-<kernel>" (traffic-map,
// traffic-set, traffic-queue, traffic-counter) and read SystemConfig::traffic
// at construction; the STAMP profiles ignore it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "workloads/workload.hpp"

namespace puno::traffic::registry {

struct Entry {
  std::string name;
  std::string description;  ///< One line, for --list-workloads.
  bool open_loop = false;   ///< True for the traffic-* kernels.
};

/// Every registered workload, STAMP profiles first, in stable order.
[[nodiscard]] const std::vector<Entry>& entries();

/// Just the names, in entries() order (grid validation, CLI errors).
[[nodiscard]] std::vector<std::string> names();

[[nodiscard]] bool known(const std::string& name);

/// True when `name` is an open-loop traffic kernel ("traffic-*").
[[nodiscard]] bool is_traffic(const std::string& name);

/// Throws std::invalid_argument unless `scale` is a finite number > 0: the
/// one rule for the quota multiplier make() takes, so a sweep can check it
/// before simulating.
void check_scale(double scale);

/// Builds the named workload. Traffic kernels read cfg.traffic /
/// cfg.cache.block_bytes / cfg.num_nodes / cfg.seed; STAMP profiles read
/// cfg.num_nodes / cfg.seed and their own calibration tables. `scale`
/// multiplies the per-node transaction (or arrival) quota. Throws
/// std::invalid_argument on an unknown name or a bad scale (check_scale).
[[nodiscard]] std::unique_ptr<workloads::Workload> make(
    const std::string& name, const SystemConfig& cfg, double scale = 1.0);

}  // namespace puno::traffic::registry

// Shared infrastructure for the per-figure/table experiment harnesses.
//
// Every figure bench runs (a subset of) the same 8-workload x 4-scheme
// sweep. Sweeps go through the parallel experiment runner (src/runner/):
// jobs shard across worker threads (--jobs equivalent: PUNO_JOBS, default
// hardware_concurrency) and finished runs are cached on disk in the
// content-addressed result cache (default ./.puno-cache, override with
// PUNO_CACHE_DIR). Delete the cache directory or set PUNO_BENCH_NOCACHE=1
// to force re-simulation. PUNO_BENCH_SCALE scales the per-node
// committed-transaction quota (default 1.0).
#pragma once

#include <string>
#include <vector>

#include "metrics/experiment.hpp"
#include "metrics/run_result.hpp"
#include "runner/suite.hpp"

namespace puno::bench {

/// Experiment scale taken from PUNO_BENCH_SCALE (default 1.0). Throws
/// std::invalid_argument naming the variable unless it is a number > 0.
[[nodiscard]] double bench_scale();

/// False when PUNO_BENCH_NOCACHE=1 disables the on-disk result cache.
[[nodiscard]] bool cache_enabled();

/// The benches' shared result cache (at runner::ResultCache::default_dir()).
[[nodiscard]] const runner::ResultCache& bench_cache();

/// Runs (or loads from cache) one experiment.
[[nodiscard]] metrics::RunResult cached_run(metrics::ExperimentParams params);

/// Runs (or loads) the whole suite for one scheme — one sharded batch.
[[nodiscard]] std::vector<metrics::RunResult> cached_suite(
    Scheme scheme, std::uint64_t seed = 1);

/// A full schemes x seeds x 8-workload sweep, executed as one parallel
/// batch (with a live progress meter and a wall-time/speedup summary).
struct SweepGrid {
  std::vector<Scheme> schemes;
  std::vector<std::uint64_t> seeds;
  std::vector<std::string> workloads;  // paper order
  runner::SweepResult sweep;

  /// Result of (schemes[s], seeds[k], workloads[w]).
  [[nodiscard]] const metrics::RunResult& at(std::size_t s, std::size_t k,
                                             std::size_t w) const {
    return sweep.outcomes[(s * seeds.size() + k) * workloads.size() + w]
        .result;
  }
};
[[nodiscard]] SweepGrid cached_sweep(const std::vector<Scheme>& schemes,
                                     const std::vector<std::uint64_t>& seeds);

/// A figure's data: per-workload values for several named series.
struct Series {
  std::string name;
  std::vector<double> values;  // one per workload, paper order
};

/// Prints a paper-style normalized figure: every series divided by the
/// first (baseline) series per workload, plus overall and high-contention
/// geometric means.
void print_normalized(const std::string& title,
                      const std::vector<std::string>& workloads,
                      const std::vector<Series>& series);

/// Prints raw (unnormalized) values with a column per series.
void print_raw(const std::string& title,
               const std::vector<std::string>& workloads,
               const std::vector<Series>& series, const char* unit);

/// Geometric mean over a subset of indices.
[[nodiscard]] double geomean(const std::vector<double>& v,
                             const std::vector<std::size_t>& idx);

}  // namespace puno::bench

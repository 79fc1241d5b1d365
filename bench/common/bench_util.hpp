// Shared infrastructure for the per-figure/table experiment harnesses.
//
// Every bench that simulates builds its job list and runs it as one batch
// through the parallel experiment runner (src/runner/): jobs shard across
// worker threads (PUNO_JOBS, default hardware_concurrency) and every result
// is simulated. Most benches run (a subset of) the same 8-workload x
// scheme x seed grid; PUNO_BENCH_SCALE scales that grid's per-node
// committed-transaction quota (default 1.0).
#pragma once

#include <string>
#include <vector>

#include "metrics/run_result.hpp"
#include "runner/runner.hpp"

namespace puno::bench {

/// Experiment scale taken from PUNO_BENCH_SCALE (default 1.0). Throws
/// std::invalid_argument naming the variable unless it is a number > 0.
[[nodiscard]] double bench_scale();

/// Runs `specs` as one parallel batch, with a live progress meter on
/// stderr, and prints the runner's wall-time/speedup summary line.
/// outcomes[i] is specs[i]'s result.
[[nodiscard]] runner::SweepResult run_batch(
    const std::vector<runner::JobSpec>& specs);

/// The 8 STAMP workloads x schemes x seeds at PUNO_BENCH_SCALE, run as one
/// batch.
struct SweepGrid {
  std::vector<Scheme> schemes;
  std::vector<std::uint64_t> seeds;
  std::vector<std::string> workloads;  // paper order
  runner::SweepResult sweep;

  /// Result of (schemes[s], seeds[k], workloads[w]); the jobs are in
  /// runner::expand_grid's order (workload, then scheme, then seed).
  [[nodiscard]] const metrics::RunResult& at(std::size_t s, std::size_t k,
                                             std::size_t w) const {
    return sweep.outcomes[(w * schemes.size() + s) * seeds.size() + k].result;
  }
};
[[nodiscard]] SweepGrid run_grid(const std::vector<Scheme>& schemes,
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

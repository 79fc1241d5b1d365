// The benchmark's workloads and the single path every job takes through the
// simulator's public API: traffic::registry::make -> arch::Cmp -> Cmp::run ->
// metrics::RunResult::from_stats, followed by the job's correctness check.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "layers.hpp"
#include "metrics/run_result.hpp"
#include "profiler.hpp"
#include "sim/config.hpp"

namespace punobench {

/// One simulation: a registry workload on one CMP configuration.
struct JobSpec {
  std::string workload;    ///< traffic::registry name.
  puno::SystemConfig cfg;  ///< Scheme and seed already applied.
  double scale = 1.0;      ///< registry::make quota multiplier.
};

/// A named benchmark workload: the jobs one pass runs, in order.
struct BenchWorkload {
  std::string name;
  std::vector<JobSpec> jobs;
};

[[nodiscard]] const std::vector<std::string>& bench_workload_names();

/// The jobs of benchmark workload `name` for `seed`. `length` multiplies
/// every job's quota (1 = the benchmark's size; the self-test shrinks it).
/// nullopt for an unknown name.
[[nodiscard]] std::optional<BenchWorkload> make_bench_workload(
    const std::string& name, std::uint64_t seed, double length);

/// Host seconds of one job's calls into each layer: wall time (the `_s`
/// fields, the spans' time base) and process CPU time (`cpu_*`, host_cpu_s).
struct JobTimes {
  double make_s = 0.0;      ///< traffic::registry::make.
  double build_s = 0.0;     ///< arch::Cmp construction (+ open-loop attach).
  double simulate_s = 0.0;  ///< Cmp::run.
  double extract_s = 0.0;   ///< RunResult::from_stats + count extraction.
  double total_s = 0.0;     ///< The whole job, Cmp teardown included.
  double cpu_setup_s = 0.0;     ///< make + build.
  double cpu_simulate_s = 0.0;  ///< Cmp::run.
  double cpu_total_s = 0.0;     ///< The whole job.
  double ref_s = 0.0;  ///< Mean CPU s of the host-speed reference around it.
};

struct JobOutcome {
  puno::metrics::RunResult result;
  Counts counts;
  /// The simulated-statistics digest: the RunResult JSONL line followed by
  /// every registry statistic (metrics::write_stats_csv).
  std::string digest;
  std::string failure;  ///< "" when every correctness check passed.
  JobTimes times;
  JobPhases phases;  ///< Empty unless a profiler was attached.
};

/// Optional tracing of a job: with a profiler the kernel's per-cycle phases
/// are aggregated, with a span log the layer calls are recorded as spans.
struct JobTrace {
  PhaseProfiler* profiler = nullptr;
  SpanLog* spans = nullptr;
  std::uint64_t job_id = 0;
};

/// Times the job's set-up alone: registry::make and arch::Cmp construction
/// (make_s, build_s and cpu_setup_s of the result; the other fields stay 0).
/// Both are torn
/// down again without simulating.
[[nodiscard]] JobTimes time_setup(const JobSpec& spec);

/// Runs one job on a fresh CMP and checks its completion condition: a
/// closed-loop job commits exactly its quota; an open-loop job offers its
/// whole arrival quota with offered == admitted + dropped and
/// begun == admitted == commits. `quota_skew` is added to the expected
/// quota (0 normally; the self-test injects a mismatch with it).
[[nodiscard]] JobOutcome run_job(const JobSpec& spec, const JobTrace& trace,
                                 std::int64_t quota_skew);

}  // namespace punobench

// The STAMP suite on top of the parallel runner: run_suite is a thin grid
// builder over runner::run_jobs, so the 8 workloads shard across cores
// while staying bit-identical to a serial loop (each job owns its kernel,
// RNG and stats registry — see docs/RUNNER.md).
#pragma once

#include <cstdint>
#include <vector>

#include "metrics/run_result.hpp"
#include "runner/runner.hpp"

namespace puno::runner {

struct SuiteOptions {
  unsigned jobs = 0;                  ///< 0 = $PUNO_JOBS / hardware threads.
  const ResultCache* cache = nullptr; ///< Optional result cache.
  bool progress = false;              ///< Live meter on stderr.
  double scale = 1.0;                 ///< Committed-txn quota multiplier.
};

/// Runs all 8 STAMP-like workloads under one scheme, in paper order. A job
/// that fails even after its retry yields a stub row (completed = false,
/// zero metrics) so the suite shape is always 8 rows.
[[nodiscard]] std::vector<metrics::RunResult> run_suite(
    Scheme scheme, std::uint64_t seed = 1, const SuiteOptions& options = {});

}  // namespace puno::runner

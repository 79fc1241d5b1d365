#include "runner/suite.hpp"

#include "runner/grid.hpp"
#include "workloads/stamp.hpp"

namespace puno::runner {

std::vector<metrics::RunResult> run_suite(Scheme scheme, std::uint64_t seed,
                                          const SuiteOptions& options) {
  GridSpec grid;
  grid.workloads = workloads::stamp::benchmark_names();
  grid.schemes = {scheme};
  grid.seeds = {seed};
  grid.scale = options.scale;
  RunnerOptions ro;
  ro.jobs = options.jobs;
  ro.cache = options.cache;
  ro.progress = options.progress;
  SweepResult sweep = run_jobs(expand_grid(grid), ro);

  std::vector<metrics::RunResult> results;
  results.reserve(sweep.outcomes.size());
  for (JobOutcome& o : sweep.outcomes) results.push_back(std::move(o.result));
  return results;
}

}  // namespace puno::runner

// Extension study (paper Section VI, future work): commit-triggered retry
// hints on top of PUNO. The sensitivity bench shows notification estimates
// overestimate when nackers finish early (commit before their TxLB average,
// or abort); the hint closes exactly that gap. Compare Baseline, PUNO and
// PUNO+Hint across the full suite.
#include <cstdio>

#include "bench/common/bench_util.hpp"
#include "workloads/stamp.hpp"

int main() {
  using namespace puno;
  // Three jobs per workload: Baseline, PUNO, PUNO+Hint.
  const auto names = workloads::stamp::benchmark_names();
  std::vector<runner::JobSpec> specs;
  for (const std::string& w : names) {
    runner::JobSpec spec;
    spec.params.workload = w;
    spec.params.scheme = Scheme::kBaseline;
    specs.push_back(spec);
    spec.params.scheme = Scheme::kPuno;
    specs.push_back(spec);
    spec.params.base_config.puno.enable_commit_hint = true;
    spec.label = w + "/PUNO+Hint/s1";
    specs.push_back(spec);
  }
  const runner::SweepResult sweep = bench::run_batch(specs);

  std::printf("Extension — commit-triggered retry hints on top of PUNO\n");
  std::printf("========================================================\n");
  std::printf("%-11s | %9s %9s | %9s %9s | %9s %9s\n", "Benchmark", "PUNOcyc",
              "Hintcyc", "PUNOab", "Hintab", "hints", "wakeups");
  for (std::size_t i = 0; i < names.size(); ++i) {
    const metrics::RunResult& base = sweep.outcomes[3 * i].result;
    const metrics::RunResult& puno = sweep.outcomes[3 * i + 1].result;
    const metrics::RunResult& hint = sweep.outcomes[3 * i + 2].result;
    std::printf("%-11s | %9.3f %9.3f | %9.3f %9.3f | %9llu %9llu\n",
                names[i].c_str(),
                static_cast<double>(puno.cycles) / base.cycles,
                static_cast<double>(hint.cycles) / base.cycles,
                static_cast<double>(puno.aborts) / base.aborts,
                static_cast<double>(hint.aborts) / base.aborts,
                static_cast<unsigned long long>(hint.commit_hints_sent),
                static_cast<unsigned long long>(hint.hint_wakeups));
  }
  std::printf("\n(cycles and aborts normalized to Baseline; hints add one\n"
              "single-flit message per released waiter)\n");
  return 0;
}

// Figure 2: percentage of transactional GETX requests that trigger false
// aborting, measured on the baseline HTM (the paper reports a 41% average
// over its high-contention study set).
#include <cstdio>

#include "bench/common/bench_util.hpp"

int main() {
  using namespace puno;
  const bench::SweepGrid grid = bench::run_grid({Scheme::kBaseline}, {1});
  std::printf("Figure 2 — transactional GETX requests incurring false "
              "aborting (baseline)\n");
  std::printf("==========================================================="
              "=========\n");
  std::printf("%-11s %14s %14s %10s\n", "Benchmark", "TxGETX", "FalseAbort",
              "Rate");
  double acc = 0;
  int counted = 0;
  for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
    const metrics::RunResult& r = grid.at(0, 0, w);
    const double rate = r.false_abort_fraction();
    std::printf("%-11s %14llu %14llu %9.1f%%\n", r.workload.c_str(),
                static_cast<unsigned long long>(r.tx_getx_issued),
                static_cast<unsigned long long>(r.false_abort_events),
                rate * 100.0);
    // The paper's 41% average is over workloads that actually contend.
    if (r.tx_getx_issued > 0 && r.abort_rate() > 0.1) {
      acc += rate;
      ++counted;
    }
  }
  if (counted > 0) {
    std::printf("%-11s %14s %14s %9.1f%%  (paper: 41%%)\n",
                "mean(contended)", "", "", acc / counted * 100.0);
  }
  return 0;
}

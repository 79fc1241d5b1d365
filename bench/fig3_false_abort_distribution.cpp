// Figure 3: distribution of the number of transactions aborted unnecessarily
// per false-aborting event (baseline HTM). The paper highlights the long
// tail — single events can abort 5+ transactions (e.g. 10% of intruder's
// events abort 5).
#include <cstdio>

#include "bench/common/bench_util.hpp"

int main() {
  using namespace puno;
  const bench::SweepGrid grid = bench::run_grid({Scheme::kBaseline}, {1});
  std::printf("Figure 3 — transactions aborted unnecessarily per "
              "false-aborting event (baseline)\n");
  std::printf("==================================================="
              "============================\n");
  std::printf("%-11s", "Benchmark");
  constexpr int kMax = 8;
  for (int k = 1; k <= kMax; ++k) std::printf("   k=%-5d", k);
  std::printf("  k>%d\n", kMax);
  for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
    const metrics::RunResult& r = grid.at(0, 0, w);
    if (r.false_abort_events == 0) continue;
    std::printf("%-11s", r.workload.c_str());
    double tail = 0.0;
    for (std::size_t k = kMax + 1; k < r.false_abort_multiplicity.size();
         ++k) {
      tail += r.false_abort_multiplicity[k];
    }
    for (int k = 1; k <= kMax; ++k) {
      const double f = static_cast<std::size_t>(k) <
                               r.false_abort_multiplicity.size()
                           ? r.false_abort_multiplicity[k]
                           : 0.0;
      std::printf("  %6.1f%%", f * 100.0);
    }
    std::printf("  %5.1f%%\n", tail * 100.0);
  }
  std::printf("\n(rows: fraction of false-aborting events that aborted "
              "exactly k transactions)\n");
  return 0;
}

// Shared body for the Figures 10-14 benches: run the 8-workload x 4-scheme
// x 3-seed sweep as ONE sharded runner batch (96 jobs; PUNO_JOBS workers)
// and print one metric as a paper-style normalized figure.
// The runner's summary line reports wall time vs. summed sim time, i.e. the
// parallel speedup of the sweep itself.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bench/common/bench_util.hpp"
#include "workloads/stamp.hpp"

namespace puno::bench {

using MetricFn = std::function<double(const metrics::RunResult&)>;

/// Seeds averaged by every figure (the paper's runs amortize far more
/// dynamic transactions than one seed of ours; three seeds keep the
/// normalized ratios stable to within ~1%).
inline const std::vector<std::uint64_t>& figure_seeds() {
  static const std::vector<std::uint64_t> seeds = {1, 2, 3};
  return seeds;
}

inline void run_scheme_figure(const std::string& title, const MetricFn& metric,
                              const std::string& paper_note) {
  const std::vector<Scheme> schemes = {Scheme::kBaseline,
                                       Scheme::kRandomBackoff,
                                       Scheme::kRmwPred, Scheme::kPuno};
  const SweepGrid grid = run_grid(schemes, figure_seeds());
  std::vector<Series> series;
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    Series col;
    col.name = to_string(schemes[s]);
    col.values.resize(grid.workloads.size(), 0.0);
    for (std::size_t k = 0; k < grid.seeds.size(); ++k) {
      for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        col.values[w] +=
            metric(grid.at(s, k, w)) / static_cast<double>(grid.seeds.size());
      }
    }
    series.push_back(std::move(col));
  }
  print_normalized(title, grid.workloads, series);
  std::printf("\n%s\n", paper_note.c_str());
}

}  // namespace puno::bench

#include "bench/common/bench_util.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "runner/grid.hpp"
#include "workloads/stamp.hpp"

namespace puno::bench {

double bench_scale() {
  const char* v = std::getenv("PUNO_BENCH_SCALE");
  if (v == nullptr || v[0] == '\0') return 1.0;
  double s = 0.0;
  if (!runner::parse_f64(v, s) || !(s > 0.0)) {
    throw std::invalid_argument(std::string("bad PUNO_BENCH_SCALE '") + v +
                                "' (expected a number > 0)");
  }
  return s;
}

runner::SweepResult run_batch(const std::vector<runner::JobSpec>& specs) {
  runner::RunnerOptions options;
  options.progress = true;
  runner::SweepResult sweep = runner::run_jobs(specs, options);
  runner::print_summary(sweep, std::cout);
  return sweep;
}

SweepGrid run_grid(const std::vector<Scheme>& schemes,
                   const std::vector<std::uint64_t>& seeds) {
  SweepGrid grid;
  grid.schemes = schemes;
  grid.seeds = seeds;
  grid.workloads = workloads::stamp::benchmark_names();
  runner::GridSpec g;
  g.workloads = grid.workloads;
  g.schemes = schemes;
  g.seeds = seeds;
  g.scale = bench_scale();
  grid.sweep = run_batch(runner::expand_grid(g));
  return grid;
}

double geomean(const std::vector<double>& v,
               const std::vector<std::size_t>& idx) {
  if (idx.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i : idx) acc += std::log(v[i] <= 0 ? 1e-12 : v[i]);
  return std::exp(acc / static_cast<double>(idx.size()));
}

namespace {

void print_header(const std::string& title,
                  const std::vector<std::string>& workloads,
                  const std::vector<Series>& series) {
  std::printf("\n%s\n", title.c_str());
  for (std::size_t i = 0; i < title.size(); ++i) std::printf("=");
  std::printf("\n%-11s", "");
  for (const Series& s : series) std::printf(" %12s", s.name.c_str());
  std::printf("\n");
  (void)workloads;
}

std::vector<std::size_t> hc_indices(const std::vector<std::string>& ws) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    if (workloads::stamp::is_high_contention(ws[i])) idx.push_back(i);
  }
  return idx;
}

std::vector<std::size_t> all_indices(const std::vector<std::string>& ws) {
  std::vector<std::size_t> idx(ws.size());
  for (std::size_t i = 0; i < ws.size(); ++i) idx[i] = i;
  return idx;
}

}  // namespace

void print_normalized(const std::string& title,
                      const std::vector<std::string>& workloads,
                      const std::vector<Series>& series) {
  print_header(title + " (normalized to " + series.front().name + ")",
               workloads, series);
  std::vector<std::vector<double>> norm(series.size());
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    std::printf("%-11s", workloads[w].c_str());
    const double base = series.front().values[w];
    for (std::size_t s = 0; s < series.size(); ++s) {
      const double n = base == 0 ? 0.0 : series[s].values[w] / base;
      norm[s].push_back(n);
      std::printf(" %12.3f", n);
    }
    std::printf("\n");
  }
  const auto all = all_indices(workloads);
  const auto hc = hc_indices(workloads);
  std::printf("%-11s", "geomean");
  for (std::size_t s = 0; s < series.size(); ++s) {
    std::printf(" %12.3f", geomean(norm[s], all));
  }
  std::printf("\n%-11s", "geomean-HC");
  for (std::size_t s = 0; s < series.size(); ++s) {
    std::printf(" %12.3f", geomean(norm[s], hc));
  }
  std::printf("\n");
}

void print_raw(const std::string& title,
               const std::vector<std::string>& workloads,
               const std::vector<Series>& series, const char* unit) {
  print_header(title + std::string(" [") + unit + "]", workloads, series);
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    std::printf("%-11s", workloads[w].c_str());
    for (const Series& s : series) std::printf(" %12.1f", s.values[w]);
    std::printf("\n");
  }
}

}  // namespace puno::bench

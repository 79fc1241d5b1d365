// Table I: benchmark input parameters and baseline abort rates.
//
// Prints, for each STAMP-like kernel, the paper's input-parameter string and
// "Abort %" next to the abort rate this reproduction measures under the
// baseline HTM (16 cores, Table II system).
#include <cstdio>

#include "bench/common/bench_util.hpp"
#include "workloads/analysis.hpp"
#include "workloads/stamp.hpp"

int main() {
  using namespace puno;
  const bench::SweepGrid grid = bench::run_grid({Scheme::kBaseline}, {1});
  std::printf("Table I — benchmark input parameters and abort rates\n");
  std::printf("====================================================\n");
  std::printf("%-11s %-34s %10s %12s\n", "Benchmark", "Input Parameters",
              "Paper %", "Measured %");
  double paper_acc = 0, ours_acc = 0;
  for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
    const metrics::RunResult& r = grid.at(0, 0, w);
    const double paper = workloads::stamp::paper_abort_rate(r.workload);
    const double ours = r.abort_rate();
    paper_acc += paper;
    ours_acc += ours;
    std::printf("%-11s %-34s %9.1f%% %11.1f%%\n", r.workload.c_str(),
                workloads::stamp::input_parameters(r.workload).c_str(),
                paper * 100.0, ours * 100.0);
  }
  std::printf("%-11s %-34s %9.1f%% %11.1f%%\n", "mean", "",
              paper_acc / grid.workloads.size() * 100.0,
              ours_acc / grid.workloads.size() * 100.0);
  std::printf(
      "\nNote: \"Measured\" is this reproduction's baseline abort rate;\n"
      "the contention *ordering* and high/low classes are the target, not\n"
      "digit-exact Table I values (see EXPERIMENTS.md).\n");

  std::printf("\nStatic workload characterization\n");
  std::printf("--------------------------------\n");
  for (const auto& name : workloads::stamp::benchmark_names()) {
    auto wl = workloads::stamp::make(name, 16, 1, bench::bench_scale());
    const auto profile = workloads::analyze(*wl, 16);
    std::printf("  %s\n", workloads::summarize(profile).c_str());
  }
  return 0;
}

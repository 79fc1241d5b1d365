// Core-count scaling: the same contended workload on 2x2, 3x3 and 4x4
// meshes. Not a paper figure, but the natural question after Section IV:
// false aborting worsens with the sharer count, so PUNO's margin should
// grow with the machine.
#include <cstdio>

#include "metrics/experiment.hpp"

namespace {

using namespace puno;

metrics::RunResult run_at(std::uint32_t width, Scheme scheme) {
  metrics::ExperimentParams p;
  p.workload = "intruder";
  p.scheme = scheme;
  p.scale = 0.75;
  p.max_cycles = 40'000'000;
  p.base_config.noc.mesh_width = width;
  p.base_config.num_nodes = width * width;
  return metrics::run_experiment(p);
}

}  // namespace

int main() {
  std::printf("Mesh scaling — intruder, Baseline vs PUNO\n");
  std::printf("=========================================\n");
  std::printf("%6s | %9s %10s | %9s %9s %9s\n", "cores", "abort%", "falseAb%",
              "ab ratio", "traf rat", "cyc rat");
  for (std::uint32_t w : {2u, 3u, 4u}) {
    const auto base = run_at(w, Scheme::kBaseline);
    const auto puno = run_at(w, Scheme::kPuno);
    std::printf("%6u | %8.1f%% %9.1f%% | %9.3f %9.3f %9.3f\n", w * w,
                base.abort_rate() * 100, base.false_abort_fraction() * 100,
                static_cast<double>(puno.aborts) / base.aborts,
                static_cast<double>(puno.router_traversals) /
                    base.router_traversals,
                static_cast<double>(puno.cycles) / base.cycles);
  }
  std::printf("\n(ratios are PUNO/Baseline; more cores -> more sharers per "
              "hot line ->\n more false aborting for PUNO to remove)\n");
  return 0;
}

// Core-count scaling: the same contended workload on 2x2, 3x3 and 4x4
// meshes. Not a paper figure, but the natural question after Section IV:
// false aborting worsens with the sharer count, so PUNO's margin should
// grow with the machine.
#include <cstdio>
#include <vector>

#include "bench/common/bench_util.hpp"

int main() {
  using namespace puno;
  // Per width: a Baseline job, then a PUNO job.
  const std::vector<std::uint32_t> widths = {2, 3, 4};
  std::vector<runner::JobSpec> specs;
  for (const std::uint32_t w : widths) {
    for (const Scheme scheme : {Scheme::kBaseline, Scheme::kPuno}) {
      runner::JobSpec spec;
      spec.params.workload = "intruder";
      spec.params.scheme = scheme;
      spec.params.scale = 0.75;
      spec.params.max_cycles = 40'000'000;
      spec.params.base_config.noc.mesh_width = w;
      spec.params.base_config.num_nodes = w * w;
      spec.label = std::to_string(w * w) + "-core/" + to_string(scheme);
      specs.push_back(std::move(spec));
    }
  }
  const runner::SweepResult sweep = bench::run_batch(specs);

  std::printf("Mesh scaling — intruder, Baseline vs PUNO\n");
  std::printf("=========================================\n");
  std::printf("%6s | %9s %10s | %9s %9s %9s\n", "cores", "abort%", "falseAb%",
              "ab ratio", "traf rat", "cyc rat");
  for (std::size_t i = 0; i < widths.size(); ++i) {
    const metrics::RunResult& base = sweep.outcomes[2 * i].result;
    const metrics::RunResult& puno = sweep.outcomes[2 * i + 1].result;
    std::printf("%6u | %8.1f%% %9.1f%% | %9.3f %9.3f %9.3f\n",
                widths[i] * widths[i], base.abort_rate() * 100,
                base.false_abort_fraction() * 100,
                static_cast<double>(puno.aborts) / base.aborts,
                static_cast<double>(puno.router_traversals) /
                    base.router_traversals,
                static_cast<double>(puno.cycles) / base.cycles);
  }
  std::printf("\n(ratios are PUNO/Baseline; more cores -> more sharers per "
              "hot line ->\n more false aborting for PUNO to remove)\n");
  return 0;
}

// Contention study: build custom synthetic workloads at increasing
// contention levels and watch false aborting emerge — the phenomenon that
// motivates the paper — then check how much of it PUNO removes.
//
// This example exercises the public workload-construction API: you define a
// SyntheticSpec (the same mechanism behind the 8 STAMP-like kernels) and run
// it through the experiment driver.
#include <cstdio>
#include <memory>

#include "metrics/experiment.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace puno;

/// A tunable "shared counter pool" workload: every transaction reads a few
/// pool entries and updates one; `hot_blocks` controls how concentrated the
/// pool is (fewer blocks = more contention).
workloads::SyntheticSpec pool_spec(std::uint32_t hot_blocks) {
  workloads::SyntheticSpec s;
  s.name = "pool" + std::to_string(hot_blocks);
  s.txns_per_node = 64;
  s.hot_blocks = hot_blocks;
  s.anchor_blocks = 1;
  s.shared_blocks = 2048;
  workloads::StaticTxnSpec t;
  t.reads_min = 6;
  t.reads_max = 10;
  t.writes_min = 1;
  t.writes_max = 2;
  t.op_think_min = 3;
  t.op_think_max = 8;
  t.hot_read_frac = 0.8;
  t.hot_write_frac = 0.8;
  t.rmw_frac = 0.5;
  t.anchor_reads = 1;
  s.txns.push_back(t);
  return s;
}

metrics::RunResult run_pool(std::uint32_t hot_blocks, Scheme scheme) {
  metrics::ExperimentParams p;
  p.scheme = scheme;
  auto wl = std::make_unique<workloads::SyntheticWorkload>(
      pool_spec(hot_blocks), p.base_config.num_nodes, p.seed);
  p.workload = wl->name();
  return metrics::Experiment(p, std::move(wl)).run();
}

}  // namespace

int main() {
  std::printf("Contention study: shared pool of N hot blocks, 16 cores\n");
  std::printf("%-6s | %9s %9s %10s | %9s %10s %9s\n", "hot", "abort%",
              "falseAb%", "cycles", "PUNOab%", "PUNOfae%", "PUNOcyc");
  for (std::uint32_t hot : {256u, 64u, 16u, 8u, 4u}) {
    const auto base = run_pool(hot, Scheme::kBaseline);
    const auto puno = run_pool(hot, Scheme::kPuno);
    std::printf("%-6u | %8.1f%% %8.1f%% %10llu | %8.1f%% %9.1f%% %9.2f\n",
                hot, base.abort_rate() * 100,
                base.false_abort_fraction() * 100,
                static_cast<unsigned long long>(base.cycles),
                puno.abort_rate() * 100, puno.false_abort_fraction() * 100,
                static_cast<double>(puno.cycles) /
                    static_cast<double>(base.cycles));
  }
  std::printf(
      "\nReading: as the pool shrinks, read-sharing piles onto fewer lines\n"
      "and the baseline's multicast GETX aborts ever more sharers for\n"
      "nothing; PUNO's columns show the abort rate and false-abort fraction\n"
      "it leaves behind, and its relative execution time.\n");
  return 0;
}

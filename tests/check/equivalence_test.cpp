// Active-set scheduling equivalence: the hot-path mesh (tick only routers
// and NIs in the active sets) must be bit-identical to the always-tick
// reference sweep. Runs the fuzz driver's randomized whole-CMP simulations
// across 32 seeds and every scheme with noc.always_tick flipped, and
// compares the full stats dump — one differing counter anywhere (cycle
// counts, traversals, abort causes, latencies) fails the test.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/fuzz.hpp"
#include "check/invariants.hpp"
#include "sim/config.hpp"
#include "workloads/synthetic.hpp"

namespace puno::check {
namespace {

constexpr std::uint64_t kNumSeeds = 32;
constexpr Cycle kMaxCycles = 2'000'000;

/// Runs one fuzz case twice — active-set path vs always-tick reference —
/// and requires identical outcomes down to the last stats counter.
void expect_equivalent(std::uint64_t seed, Scheme scheme) {
  const workloads::SyntheticSpec spec = make_fuzz_spec(seed);
  // Coarse checker stride: the invariant oracle (including the active-set
  // coverage check in kNocConservation) still samples both runs, but the
  // comparison below is the real oracle here.
  CheckerConfig checker;
  checker.stride = 64;

  SystemConfig cfg = make_fuzz_config(seed, scheme);
  cfg.noc.always_tick = false;
  const RunOutcome active = run_one(cfg, spec, checker, kMaxCycles);
  cfg.noc.always_tick = true;
  const RunOutcome reference = run_one(cfg, spec, checker, kMaxCycles);

  const std::string label = "seed " + std::to_string(seed) + " scheme " +
                            scheme_flag(scheme);
  EXPECT_TRUE(active.violations.empty()) << label;
  EXPECT_TRUE(reference.violations.empty()) << label;
  EXPECT_EQ(active.completed, reference.completed) << label;
  EXPECT_EQ(active.cycles, reference.cycles) << label;
  EXPECT_EQ(active.commits, reference.commits) << label;
  EXPECT_EQ(active.total_committed, reference.total_committed) << label;
  EXPECT_EQ(active.falsely_aborted, reference.falsely_aborted) << label;
  // The decisive check: every stat the simulation exports, byte for byte.
  EXPECT_EQ(active.stats_csv, reference.stats_csv) << label;
}

class ActiveSetEquivalenceTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(ActiveSetEquivalenceTest, BitIdenticalAcrossFuzzSeeds) {
  for (std::uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    expect_equivalent(seed, GetParam());
    if (::testing::Test::HasFailure()) {
      FAIL() << "first divergence at seed " << seed
             << "; repro: " << repro_line(seed, GetParam());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ActiveSetEquivalenceTest,
                         ::testing::Values(Scheme::kBaseline,
                                           Scheme::kRandomBackoff,
                                           Scheme::kRmwPred, Scheme::kPuno),
                         [](const auto& p) {
                           return std::string(scheme_flag(p.param));
                         });

}  // namespace
}  // namespace puno::check

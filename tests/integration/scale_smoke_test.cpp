// Scale smoke: whole-CMP runs past the paper's 16 tiles, under the
// protocol invariant oracle.
//
// The paper's machine is a 4x4 mesh; the scale study (docs/SCALING.md)
// runs the same protocol at 64, 256 and 1024 tiles. These smokes pin the
// property the study relies on: the protocol stays invariant-clean and
// drains at every size, for each sharer encoding the directory can be
// configured with (the lossy ones on the 4x4 machine too). Labeled scale_smoke (own CI step); the runs are
// deliberately small — a handful of transactions per core — so the whole
// binary stays in smoke-test territory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>

#include "check/fuzz.hpp"
#include "check/invariants.hpp"
#include "sim/config.hpp"
#include "workloads/synthetic.hpp"

namespace puno {
namespace {

[[nodiscard]] SystemConfig scale_config(std::uint32_t width, Scheme scheme) {
  SystemConfig cfg;
  cfg.num_nodes = width * width;
  cfg.noc.mesh_width = width;
  cfg.scheme = scheme;
  cfg.seed = 42;
  return cfg;
}

[[nodiscard]] workloads::SyntheticSpec scale_spec(std::uint32_t txns,
                                                  std::uint32_t num_nodes) {
  workloads::SyntheticSpec spec;
  spec.name = "scale-smoke";
  spec.txns_per_node = txns;
  spec.hot_blocks = 32;
  // Per-anchor contention stays constant across machine sizes (total
  // transactions grow with the node count, so a fixed anchor pool would
  // serialize the whole machine and drain time would grow linearly).
  spec.anchor_blocks = std::max<std::uint32_t>(4, num_nodes / 16);
  spec.shared_blocks = 2048;
  spec.private_blocks_per_node = 32;
  // One contended site (anchor write + hot reads) keeps sharer sets and
  // NACK chains exercised even at a few transactions per core.
  workloads::StaticTxnSpec site;
  site.reads_min = 2;
  site.reads_max = 6;
  site.writes_min = 1;
  site.writes_max = 2;
  site.anchor_reads = 1;
  site.anchor_writes = 1;
  spec.txns.push_back(site);
  return spec;
}

// gtest lists each case under the raw bytes of its ScaleCase, so the
// trailing padding is the zeroed field `tail`; as padding it held stack
// residue and the listed names changed from build to build.
struct ScaleCase {
  std::uint32_t width;
  Scheme scheme;
  SharerRep rep;
  std::uint16_t tail = 0;
};
static_assert(std::has_unique_object_representations_v<ScaleCase>,
              "padding in ScaleCase makes the gtest case names vary by build");

class ScaleSmoke : public ::testing::TestWithParam<ScaleCase> {};

TEST_P(ScaleSmoke, DrainsInvariantClean) {
  const ScaleCase sc = GetParam();
  SystemConfig cfg = scale_config(sc.width, sc.scheme);
  cfg.dir.sharer_rep = sc.rep;
  cfg.dir.coarse_region = 4;
  cfg.dir.limited_pointers = 4;
  ASSERT_EQ(validate(cfg), std::nullopt);

  check::CheckerConfig checker;  // all invariants on
  // One sweep reads O(machine state), which itself grows with the tile
  // count; sweeping every 16*num_nodes cycles keeps the oracle's share of
  // the run roughly constant across sizes instead of quadratic.
  checker.stride = 16 * cfg.num_nodes;
  const auto outcome =
      check::run_one(cfg, scale_spec(4, cfg.num_nodes), checker, 4'000'000);
  EXPECT_TRUE(outcome.completed) << "did not drain by the cycle cap";
  EXPECT_TRUE(outcome.violations.empty())
      << outcome.violations.size() << " invariant violations, first: "
      << (outcome.violations.empty() ? ""
                                     : outcome.violations.front().detail);
  EXPECT_EQ(outcome.total_committed,
            std::uint64_t{cfg.num_nodes} * 4);
}

INSTANTIATE_TEST_SUITE_P(
    Meshes, ScaleSmoke,
    ::testing::Values(ScaleCase{8, Scheme::kPuno, SharerRep::kFull},
                      ScaleCase{8, Scheme::kBaseline, SharerRep::kCoarse},
                      ScaleCase{8, Scheme::kPuno, SharerRep::kLimited},
                      ScaleCase{16, Scheme::kPuno, SharerRep::kFull},
                      ScaleCase{16, Scheme::kBaseline, SharerRep::kLimited},
                      // The paper's 4x4 machine, where region 4 and four
                      // pointers are both lossy.
                      ScaleCase{4, Scheme::kPuno, SharerRep::kCoarse},
                      ScaleCase{4, Scheme::kBaseline, SharerRep::kLimited}),
    [](const auto& p) {
      const ScaleCase& sc = p.param;
      std::string name = std::to_string(sc.width * sc.width);
      name += "t_";
      name += sc.scheme == Scheme::kPuno ? "puno" : "baseline";
      name += "_";
      name += to_string(sc.rep);
      return name;
    });

// The acceptance size: a 1024-tile (32x32) run completes under the oracle.
// One transaction per core and a coarser checker stride keep it smoke-sized.
TEST(ScaleSmoke, ThousandTileRunCompletes) {
  SystemConfig cfg = scale_config(32, Scheme::kPuno);
  cfg.dir.sharer_rep = SharerRep::kLimited;  // realistic hardware at 1024
  cfg.dir.limited_pointers = 8;
  ASSERT_EQ(validate(cfg), std::nullopt);

  check::CheckerConfig checker;
  checker.stride = 16 * cfg.num_nodes;  // see DrainsInvariantClean
  const auto outcome =
      check::run_one(cfg, scale_spec(1, cfg.num_nodes), checker, 8'000'000);
  EXPECT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.violations.empty());
  EXPECT_EQ(outcome.total_committed, 1024u);
}

// Non-square meshes are first-class: an 8x4 CMP runs clean end to end.
TEST(ScaleSmoke, NonSquareMeshRuns) {
  SystemConfig cfg;
  cfg.num_nodes = 32;
  cfg.noc.mesh_width = 8;
  cfg.noc.mesh_height = 4;
  cfg.scheme = Scheme::kPuno;
  ASSERT_EQ(validate(cfg), std::nullopt);

  const auto outcome = check::run_one(cfg, scale_spec(4, cfg.num_nodes),
                                      check::CheckerConfig{}, 2'000'000);
  EXPECT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.violations.empty());
  EXPECT_EQ(outcome.total_committed, 32u * 4);
}

}  // namespace
}  // namespace puno

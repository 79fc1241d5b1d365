// Config-override grid: the --set key registry and the mesh-shape coupling.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "metrics/experiment.hpp"
#include "runner/grid.hpp"
#include "runner/run_key.hpp"
#include "sim/config.hpp"

namespace puno::runner {
namespace {

TEST(ApplyOverride, NumNodesDerivesSquareMesh) {
  SystemConfig cfg;
  ASSERT_TRUE(apply_override(cfg, "num_nodes", "64"));
  EXPECT_EQ(cfg.num_nodes, 64u);
  EXPECT_EQ(cfg.noc.mesh_width, 8u);
  EXPECT_EQ(cfg.noc.rows(), 8u);
  EXPECT_EQ(validate(cfg), std::nullopt);

  ASSERT_TRUE(apply_override(cfg, "num_nodes", "1024"));
  EXPECT_EQ(cfg.noc.mesh_width, 32u);
  EXPECT_EQ(validate(cfg), std::nullopt);
}

TEST(ApplyOverride, NumNodesDerivesMostSquareRectangle) {
  SystemConfig cfg;
  ASSERT_TRUE(apply_override(cfg, "num_nodes", "32"));
  EXPECT_EQ(cfg.noc.mesh_width, 8u);
  EXPECT_EQ(cfg.noc.rows(), 4u);
  EXPECT_EQ(validate(cfg), std::nullopt);

  // A prime count degenerates to a 1-row mesh but stays valid.
  ASSERT_TRUE(apply_override(cfg, "num_nodes", "7"));
  EXPECT_EQ(cfg.noc.mesh_width, 7u);
  EXPECT_EQ(cfg.noc.rows(), 1u);
  EXPECT_EQ(validate(cfg), std::nullopt);
}

TEST(ApplyOverride, MeshDimensionsRecomputeNodeCount) {
  SystemConfig cfg;
  ASSERT_TRUE(apply_override(cfg, "noc.mesh_width", "8"));
  EXPECT_EQ(cfg.num_nodes, 64u);  // height 0 = square
  ASSERT_TRUE(apply_override(cfg, "noc.mesh_height", "4"));
  EXPECT_EQ(cfg.num_nodes, 32u);
  EXPECT_EQ(validate(cfg), std::nullopt);
  // Back to square.
  ASSERT_TRUE(apply_override(cfg, "noc.mesh_height", "0"));
  EXPECT_EQ(cfg.num_nodes, 64u);
}

TEST(ApplyOverride, DirectoryKnobs) {
  SystemConfig cfg;
  ASSERT_TRUE(apply_override(cfg, "dir.sharer_rep", "coarse"));
  EXPECT_EQ(cfg.dir.sharer_rep, SharerRep::kCoarse);
  ASSERT_TRUE(apply_override(cfg, "dir.sharer_rep", "limited"));
  EXPECT_EQ(cfg.dir.sharer_rep, SharerRep::kLimited);
  ASSERT_TRUE(apply_override(cfg, "dir.sharer_rep", "full"));
  EXPECT_EQ(cfg.dir.sharer_rep, SharerRep::kFull);
  EXPECT_FALSE(apply_override(cfg, "dir.sharer_rep", "nonesuch"));

  ASSERT_TRUE(apply_override(cfg, "dir.coarse_region", "8"));
  EXPECT_EQ(cfg.dir.coarse_region, 8u);
  ASSERT_TRUE(apply_override(cfg, "dir.limited_pointers", "8"));
  EXPECT_EQ(cfg.dir.limited_pointers, 8u);
  ASSERT_TRUE(apply_override(cfg, "dir.shards", "4"));
  EXPECT_EQ(cfg.dir.shards, 4u);
  ASSERT_TRUE(apply_override(cfg, "cache.l2_banks", "4"));
  EXPECT_EQ(cfg.cache.l2_banks, 4u);
}

TEST(ApplyOverride, RejectsSignsAndOutOfRangeIntegers) {
  SystemConfig cfg;
  const std::uint64_t keys = cfg.traffic.keys;
  EXPECT_FALSE(apply_override(cfg, "traffic.keys", "-1"));
  EXPECT_FALSE(apply_override(cfg, "traffic.keys", "99999999999999999999"));
  EXPECT_FALSE(apply_override(cfg, "traffic.keys", "+5"));
  EXPECT_FALSE(apply_override(cfg, "traffic.keys", " 5"));
  EXPECT_EQ(cfg.traffic.keys, keys) << "a rejected value must not be stored";
  EXPECT_FALSE(apply_override(cfg, "noc.vc_depth", "4294967296"));
  EXPECT_FALSE(apply_override(cfg, "noc.vc_depth", "-18446744073709551615"));
  ASSERT_TRUE(apply_override(cfg, "traffic.keys", "18446744073709551615"));
  EXPECT_EQ(cfg.traffic.keys, 18446744073709551615ull);
}

// apply_override parses into a copy: from_chars used to store the parsed
// prefix ("1.5" set l1_assoc to 1) before the trailing-character check
// rejected the value.
TEST(ApplyOverride, RejectedValueLeavesConfigUnchanged) {
  const auto repr = [](const SystemConfig& c) {
    metrics::ExperimentParams p;
    p.base_config = c;
    return params_repr(p);
  };
  const SystemConfig dflt;
  for (const auto& [key, value] : {
           std::pair{"cache.l1_assoc", "1.5"},
           std::pair{"noc.vc_depth", "3 "},
           std::pair{"puno.validity_threshold", "256"},
           std::pair{"num_nodes", "0"},
       }) {
    SystemConfig cfg;
    EXPECT_FALSE(apply_override(cfg, key, value)) << key << "=" << value;
    EXPECT_EQ(repr(cfg), repr(dflt)) << key << "=" << value;
  }
}

TEST(ApplyOverride, RejectsNonFiniteDoubles) {
  for (const char* v : {"nan", "NAN", "inf", "-inf", "infinity", "1e999"}) {
    double d = 0.5;
    EXPECT_FALSE(parse_f64(v, d)) << v;
    EXPECT_EQ(d, 0.5) << v;
    SystemConfig cfg;
    EXPECT_FALSE(apply_override(cfg, "puno.timeout_fraction", v)) << v;
  }
  double d = 0.0;
  ASSERT_TRUE(parse_f64("1e3", d));
  EXPECT_EQ(d, 1000.0);
}

TEST(OverrideKeys, NewScalingKnobsAreRegistered) {
  const auto& keys = override_keys();
  for (const char* key :
       {"num_nodes", "noc.mesh_width", "noc.mesh_height", "cache.l2_banks",
        "dir.sharer_rep", "dir.coarse_region", "dir.limited_pointers",
        "dir.shards", "puno.pbuffer_entries"}) {
    EXPECT_NE(std::find(keys.begin(), keys.end(), std::string(key)),
              keys.end())
        << key << " missing from --set registry";
  }
}

}  // namespace
}  // namespace puno::runner

#include "sim/config.hpp"

#include <gtest/gtest.h>

namespace puno {
namespace {

TEST(SystemConfig, TableIIDefaults) {
  SystemConfig cfg;
  EXPECT_EQ(cfg.num_nodes, 16u);
  EXPECT_EQ(cfg.cache.l1_size_bytes, 32u * 1024);
  EXPECT_EQ(cfg.cache.l1_assoc, 4u);
  EXPECT_EQ(cfg.cache.l2_size_bytes, 8ull * 1024 * 1024);
  EXPECT_EQ(cfg.cache.l2_assoc, 8u);
  EXPECT_EQ(cfg.cache.l2_latency, 20u);
  EXPECT_EQ(cfg.cache.memory_latency, 200u);
  EXPECT_EQ(cfg.noc.mesh_width, 4u);
  EXPECT_EQ(cfg.noc.pipeline_stages, 4u);
  EXPECT_EQ(cfg.puno.pbuffer_entries, 16u);
  EXPECT_EQ(cfg.puno.txlb_entries, 32u);
  EXPECT_EQ(cfg.htm.fixed_backoff, 20u);
}

TEST(SystemConfig, BlockAlignment) {
  SystemConfig cfg;
  EXPECT_EQ(cfg.block_of(0), 0u);
  EXPECT_EQ(cfg.block_of(63), 0u);
  EXPECT_EQ(cfg.block_of(64), 64u);
  EXPECT_EQ(cfg.block_of(130), 128u);
}

TEST(SystemConfig, HomeInterleavingCoversAllNodes) {
  SystemConfig cfg;
  for (NodeId n = 0; n < cfg.num_nodes; ++n) {
    const BlockAddr b = static_cast<BlockAddr>(n) * cfg.cache.block_bytes;
    EXPECT_EQ(cfg.home_of(b), n);
  }
  // Wraps around.
  EXPECT_EQ(cfg.home_of(16ull * 64), 0u);
}

TEST(SystemConfig, HomeIsStable) {
  SystemConfig cfg;
  const BlockAddr b = 7 * 64;
  EXPECT_EQ(cfg.home_of(b), cfg.home_of(b));
}

TEST(SystemConfig, ValidateAcceptsDefaults) {
  EXPECT_EQ(validate(SystemConfig{}), std::nullopt);
}

TEST(SystemConfig, ValidateAcceptsScaleStudySizes) {
  for (const std::uint32_t w : {8u, 16u, 32u}) {
    SystemConfig cfg;
    cfg.num_nodes = w * w;
    cfg.noc.mesh_width = w;
    EXPECT_EQ(validate(cfg), std::nullopt) << w << "x" << w;
  }
}

TEST(SystemConfig, ValidateAcceptsNonSquareMesh) {
  SystemConfig cfg;
  cfg.num_nodes = 32;
  cfg.noc.mesh_width = 8;
  cfg.noc.mesh_height = 4;
  EXPECT_EQ(validate(cfg), std::nullopt);
  EXPECT_EQ(cfg.noc.rows(), 4u);
}

TEST(SystemConfig, ValidateRejectsMismatchedMesh) {
  SystemConfig cfg;
  cfg.num_nodes = 17;  // mesh stays 4x4
  ASSERT_TRUE(validate(cfg).has_value());

  SystemConfig big;
  big.num_nodes = kMaxNodes + 1;
  EXPECT_TRUE(validate(big).has_value());

  SystemConfig tiny;
  tiny.num_nodes = 1;
  tiny.noc.mesh_width = 1;
  EXPECT_TRUE(validate(tiny).has_value());
}

TEST(SystemConfig, ValidateRejectsBadDirectoryKnobs) {
  SystemConfig cfg;
  cfg.dir.shards = 3;  // does not divide 16
  EXPECT_TRUE(validate(cfg).has_value());

  SystemConfig banks;
  banks.cache.l2_banks = 5;
  EXPECT_TRUE(validate(banks).has_value());

  SystemConfig region;
  region.dir.coarse_region = 17;  // > num_nodes
  EXPECT_TRUE(validate(region).has_value());

  SystemConfig ptrs;
  ptrs.dir.limited_pointers = 17;  // hardware cap is 16
  EXPECT_TRUE(validate(ptrs).has_value());
}

TEST(SystemConfig, ValidateCapsVcsPerVnetAtTheRouterMaskWidth) {
  SystemConfig top;
  top.noc.vcs_per_vnet = 4;  // 5 ports x 12 VCs = 60 mask bits
  EXPECT_EQ(validate(top), std::nullopt);

  SystemConfig over;
  over.noc.vcs_per_vnet = 5;  // 75 bits: past the 64-bit mask
  const auto err = validate(over);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("noc.vcs_per_vnet"), std::string::npos) << *err;
  EXPECT_NE(err->find("<= 4"), std::string::npos) << *err;
}

// num_nodes == mesh_width x rows() is checked in 64 bits: a width of
// 2^31 + 2 squares to 4 modulo 2^32 and used to pass as a 4-node mesh.
TEST(SystemConfig, ValidateRejectsAMeshWhoseNodeCountWraps) {
  SystemConfig cfg;
  cfg.noc.mesh_width = (1u << 31) + 2;
  cfg.num_nodes = 4;
  const auto err = validate(cfg);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("mesh_width"), std::string::npos) << *err;
}

TEST(SystemConfig, ValidateRequiresLinkLatencyOfAtLeastOneCycle) {
  SystemConfig one;
  one.noc.link_latency = 1;
  EXPECT_EQ(validate(one), std::nullopt);

  SystemConfig zero;
  zero.noc.link_latency = 0;
  const auto err = validate(zero);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("noc.link_latency"), std::string::npos) << *err;
}

TEST(SystemConfig, ValidateRequiresAtLeastOnePipelineStage) {
  SystemConfig one;
  one.noc.pipeline_stages = 1;
  EXPECT_EQ(validate(one), std::nullopt);

  SystemConfig zero;
  zero.noc.pipeline_stages = 0;
  const auto err = validate(zero);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("noc.pipeline_stages"), std::string::npos) << *err;
}

// A VC ring's byte-wide indices address at most 255 flits. Checked through
// validate() only: a router at such a depth would allocate its slots.
TEST(SystemConfig, ValidateCapsVcDepthAtTheRingIndexWidth) {
  SystemConfig top;
  top.noc.vc_depth = 255;
  EXPECT_EQ(validate(top), std::nullopt);

  for (const std::uint32_t depth : {256u, 4294967295u}) {
    SystemConfig over;
    over.noc.vc_depth = depth;
    const auto err = validate(over);
    ASSERT_TRUE(err.has_value()) << depth;
    EXPECT_NE(err->find("noc.vc_depth"), std::string::npos) << *err;
    EXPECT_NE(err->find(std::to_string(depth)), std::string::npos) << *err;
  }
}

// Each of these crashed a run: a zero associativity or RMW table size is a
// divisor (SIGFPE), and an empty or zero rollover-period range lets the
// P-Buffer's rollover reschedule itself until memory runs out.
TEST(SystemConfig, ValidateRejectsZeroDivisorsAndAnEmptyTimeoutRange) {
  ASSERT_EQ(validate(SystemConfig{}), std::nullopt);
  struct Case {
    const char* key;
    void (*set)(SystemConfig&);
  };
  const Case cases[] = {
      {"cache.l1_assoc", [](SystemConfig& c) { c.cache.l1_assoc = 0; }},
      {"cache.l2_assoc", [](SystemConfig& c) { c.cache.l2_assoc = 0; }},
      {"htm.rmw_entries", [](SystemConfig& c) { c.htm.rmw_entries = 0; }},
      {"puno.min_timeout", [](SystemConfig& c) { c.puno.min_timeout = 0; }},
      {"puno.max_timeout",
       [](SystemConfig& c) { c.puno.max_timeout = c.puno.min_timeout - 1; }},
  };
  for (const Case& c : cases) {
    SystemConfig cfg;
    c.set(cfg);
    const auto err = validate(cfg);
    ASSERT_TRUE(err.has_value()) << c.key;
    EXPECT_NE(err->find(c.key), std::string::npos) << *err;
  }
  // The range's edges: one associativity way, a one-cycle period.
  SystemConfig edge;
  edge.cache.l1_assoc = 1;
  edge.cache.l2_assoc = 1;
  edge.htm.rmw_entries = 1;
  edge.puno.min_timeout = 1;
  edge.puno.max_timeout = 1;
  EXPECT_EQ(validate(edge), std::nullopt);
}

TEST(SystemConfig, EffectiveKnobDefaultsScaleWithNodeCount) {
  SystemConfig cfg;
  cfg.num_nodes = 256;
  cfg.noc.mesh_width = 16;
  EXPECT_EQ(cfg.dir_shards(), 256u);
  EXPECT_EQ(cfg.effective_l2_banks(), 256u);
  // pbuffer_entries keeps its Table II default of 16 — that is what makes
  // P-Buffer pressure appear naturally at 64+ nodes.
  EXPECT_EQ(cfg.effective_pbuffer_entries(), 16u);
  cfg.puno.pbuffer_entries = 0;  // explicit "one per node" auto value
  EXPECT_EQ(cfg.effective_pbuffer_entries(), 256u);
}

TEST(SystemConfig, ShardedHomesSpaceEvenlyAndStayValid) {
  SystemConfig cfg;
  cfg.num_nodes = 64;
  cfg.noc.mesh_width = 8;
  cfg.dir.shards = 16;
  ASSERT_EQ(validate(cfg), std::nullopt);
  for (std::uint64_t line = 0; line < 200; ++line) {
    const NodeId h = cfg.home_of(line * cfg.cache.block_bytes);
    EXPECT_LT(h, cfg.num_nodes);
    EXPECT_EQ(h % 4, 0u);  // homes at stride num_nodes / shards = 4
  }
  // Default sharding (every node is home) is the seed-identical mapping.
  SystemConfig dflt;
  dflt.num_nodes = 64;
  dflt.noc.mesh_width = 8;
  for (std::uint64_t line = 0; line < 200; ++line) {
    EXPECT_EQ(dflt.home_of(line * dflt.cache.block_bytes),
              static_cast<NodeId>(line % 64));
  }
}

TEST(SharerRepNames, RoundTrip) {
  for (const SharerRep r :
       {SharerRep::kFull, SharerRep::kCoarse, SharerRep::kLimited}) {
    const auto back = sharer_rep_from_string(to_string(r));
    ASSERT_TRUE(back.has_value()) << to_string(r);
    EXPECT_EQ(*back, r);
  }
  EXPECT_EQ(sharer_rep_from_string("nonesuch"), std::nullopt);
}

TEST(NocConfig, TotalVcs) {
  NocConfig n;
  EXPECT_EQ(n.total_vcs(), n.num_vnets * n.vcs_per_vnet);
}

TEST(Scheme, Names) {
  EXPECT_STREQ(to_string(Scheme::kBaseline), "Baseline");
  EXPECT_STREQ(to_string(Scheme::kRandomBackoff), "Backoff");
  EXPECT_STREQ(to_string(Scheme::kRmwPred), "RMW-Pred");
  EXPECT_STREQ(to_string(Scheme::kPuno), "PUNO");
  EXPECT_STREQ(to_string(Scheme::kRequesterWins), "RequesterWins");
  EXPECT_STREQ(to_string(Scheme::kLimitedSet), "LimitedSet");
}

// The X-macro table guarantees to_string and scheme_from_string can never
// drift apart: every enum value round-trips through its canonical name.
TEST(Scheme, RoundTripsThroughStringTable) {
  for (const Scheme s : kAllSchemes) {
    const auto back = scheme_from_string(to_string(s));
    ASSERT_TRUE(back.has_value()) << to_string(s);
    EXPECT_EQ(*back, s) << to_string(s);
  }
}

TEST(Scheme, AcceptsCliSpellings) {
  EXPECT_EQ(scheme_from_string("baseline"), Scheme::kBaseline);
  EXPECT_EQ(scheme_from_string("backoff"), Scheme::kRandomBackoff);
  EXPECT_EQ(scheme_from_string("rmw"), Scheme::kRmwPred);
  EXPECT_EQ(scheme_from_string("rmw-pred"), Scheme::kRmwPred);  // legacy
  EXPECT_EQ(scheme_from_string("puno"), Scheme::kPuno);
  EXPECT_EQ(scheme_from_string("reqwins"), Scheme::kRequesterWins);
  EXPECT_EQ(scheme_from_string("limited"), Scheme::kLimitedSet);
  EXPECT_EQ(scheme_from_string("nonesuch"), std::nullopt);
}

}  // namespace
}  // namespace puno

// SharerSet: the three directory sharer-tracking representations.
//
// The load-bearing property is over-approximation: whatever representation
// the directory uses, contains() must never return false for a node that
// was added and not removed — that is what keeps the DIR-L1 inclusivity
// invariant true by construction. The property tests drive randomized
// add/remove/clear sequences against a reference std::set and check
// exactly that, plus exactness where the representation promises it
// (kFull always; kCoarse with region 1; kLimited below the pointer cap).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <type_traits>
#include <vector>

#include "coherence/sharer_set.hpp"
#include "sim/config.hpp"
#include "sim/rng.hpp"

namespace puno::coherence {
namespace {

[[nodiscard]] SharerSet::Params params(SharerRep rep, std::uint16_t nodes,
                                       std::uint16_t region = 4,
                                       std::uint16_t pointers = 4) {
  return SharerSet::Params{rep, nodes, region, pointers};
}

[[nodiscard]] std::vector<NodeId> sorted(const std::set<NodeId>& s) {
  return {s.begin(), s.end()};
}

// --- kFull: exact at every size, including past the inline words ---

TEST(SharerSetFull, ExactSmall) {
  SharerSet s(params(SharerRep::kFull, 16));
  EXPECT_TRUE(s.empty());
  s.add(3);
  s.add(11);
  s.add(3);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(11));
  EXPECT_FALSE(s.contains(4));
  s.remove(3);
  EXPECT_FALSE(s.contains(3));
  EXPECT_EQ(s.to_vector(), (std::vector<NodeId>{11}));
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(SharerSetFull, GrowsPastInlineStorage) {
  // 1024 nodes: words 0..1 are inline, the rest heap. Exercise the word
  // boundaries on both sides of the inline/heap split.
  SharerSet s(params(SharerRep::kFull, 1024));
  const NodeId probes[] = {0, 63, 64, 127, 128, 129, 511, 512, 1023};
  for (NodeId n : probes) s.add(n);
  EXPECT_EQ(s.count(), 9u);
  for (NodeId n : probes) EXPECT_TRUE(s.contains(n)) << n;
  EXPECT_FALSE(s.contains(130));
  EXPECT_FALSE(s.contains(1022));
  // Ascending iteration across the storage split.
  EXPECT_EQ(s.to_vector(),
            (std::vector<NodeId>{0, 63, 64, 127, 128, 129, 511, 512, 1023}));
  s.remove(128);
  s.remove(1023);
  EXPECT_EQ(s.count(), 7u);
  EXPECT_FALSE(s.contains(128));
  // mask64 truncates to the first 64 nodes by design.
  EXPECT_EQ(s.mask64(), (1ull << 0) | (1ull << 63));
}

TEST(SharerSetFull, DeepCopyIncludesHeap) {
  SharerSet a(params(SharerRep::kFull, 512));
  a.add(7);
  a.add(300);
  SharerSet b = a;
  a.remove(300);
  a.add(301);
  EXPECT_TRUE(b.contains(300));
  EXPECT_FALSE(b.contains(301));
  SharerSet c(params(SharerRep::kFull, 512));
  c = b;
  EXPECT_EQ(c.to_vector(), (std::vector<NodeId>{7, 300}));
}

// --- kCoarse: whole-region over-approximation ---

TEST(SharerSetCoarse, RegionGranularity) {
  SharerSet s(params(SharerRep::kCoarse, 16, /*region=*/4));
  s.add(5);  // marks region 1 = nodes 4..7
  EXPECT_TRUE(s.contains(5));
  EXPECT_TRUE(s.contains(4));
  EXPECT_TRUE(s.contains(7));
  EXPECT_FALSE(s.contains(3));
  EXPECT_FALSE(s.contains(8));
  EXPECT_EQ(s.count(), 4u);
  EXPECT_EQ(s.to_vector(), (std::vector<NodeId>{4, 5, 6, 7}));
  // remove() is a representation no-op: a region bit cannot be cleared
  // without knowing the other members.
  s.remove(5);
  EXPECT_TRUE(s.contains(5));
  // assign() rebuilds from exact survivor info.
  SharerSet exact;
  exact.add(12);
  s.assign(exact);
  EXPECT_FALSE(s.contains(5));
  EXPECT_TRUE(s.contains(12));
  EXPECT_EQ(s.count(), 4u);  // region 3 = nodes 12..15
}

TEST(SharerSetCoarse, LastRegionClipsToNumNodes) {
  // 10 nodes, region 4: regions are {0..3}, {4..7}, {8..9}.
  SharerSet s(params(SharerRep::kCoarse, 10, /*region=*/4));
  s.add(9);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_EQ(s.to_vector(), (std::vector<NodeId>{8, 9}));
}

TEST(SharerSetCoarse, RegionOneIsExact) {
  SharerSet s(params(SharerRep::kCoarse, 16, /*region=*/1));
  s.add(2);
  s.add(9);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_TRUE(s.contains(2));
  EXPECT_FALSE(s.contains(3));
  EXPECT_EQ(s.to_vector(), (std::vector<NodeId>{2, 9}));
}

// --- kLimited: exact pointers until overflow, then broadcast ---

TEST(SharerSetLimited, ExactBelowCapacity) {
  SharerSet s(params(SharerRep::kLimited, 64, 4, /*pointers=*/4));
  s.add(40);
  s.add(3);
  s.add(17);
  s.add(3);  // duplicate: no pointer consumed
  EXPECT_FALSE(s.broadcast());
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.to_vector(), (std::vector<NodeId>{3, 17, 40}));  // sorted
  s.remove(17);
  EXPECT_EQ(s.to_vector(), (std::vector<NodeId>{3, 40}));
  s.add(63);
  s.add(0);
  EXPECT_EQ(s.count(), 4u);  // exactly at capacity, still exact
  EXPECT_FALSE(s.broadcast());
}

TEST(SharerSetLimited, OverflowsToBroadcastAtCapacityPlusOne) {
  SharerSet s(params(SharerRep::kLimited, 32, 4, /*pointers=*/2));
  s.add(1);
  s.add(2);
  EXPECT_FALSE(s.broadcast());
  s.add(3);  // third distinct sharer: overflow
  EXPECT_TRUE(s.broadcast());
  EXPECT_EQ(s.count(), 32u);
  for (NodeId n = 0; n < 32; ++n) EXPECT_TRUE(s.contains(n)) << n;
  // Broadcast is sticky under remove(); only clear()/assign() rebuild.
  s.remove(1);
  EXPECT_TRUE(s.broadcast());
  s.clear();
  EXPECT_FALSE(s.broadcast());
  EXPECT_TRUE(s.empty());
  // Re-adding a duplicate at capacity must NOT overflow.
  s.add(4);
  s.add(5);
  s.add(5);
  EXPECT_FALSE(s.broadcast());
}

TEST(SharerSetLimited, ExpandOfBroadcastCoversMachine) {
  SharerSet s(params(SharerRep::kLimited, 8, 4, /*pointers=*/1));
  s.add(6);
  s.add(1);
  ASSERT_TRUE(s.broadcast());
  const SharerSet exact = s.expand_excluding(3);
  EXPECT_EQ(exact.to_vector(), (std::vector<NodeId>{0, 1, 2, 4, 5, 6, 7}));
}

// --- Cross-representation properties, randomized against std::set ---

// gtest lists each case under the raw bytes of its RepCase, so the struct
// has no padding: the bytes that were padding are the fields `tag` and
// `tail`. Left uninitialised they held stack residue, and some cases got a
// new name on every build. Each case's `tag` is the byte its name has
// always carried, so the listed names stay the same.
struct RepCase {
  SharerRep rep;
  std::uint8_t tag;
  std::uint16_t nodes;
  std::uint16_t region;
  std::uint16_t pointers;
  bool exact;  ///< representation promises exact membership w/o remove()
  std::uint8_t tail = 0;
};
static_assert(std::has_unique_object_representations_v<RepCase>,
              "padding in RepCase makes the gtest case names vary by build");

class SharerSetProperty : public ::testing::TestWithParam<RepCase> {};

TEST_P(SharerSetProperty, OverApproximatesReference) {
  const RepCase rc = GetParam();
  sim::Rng rng(0xC0FFEEu + static_cast<std::uint64_t>(rc.rep) * 997 +
               rc.nodes);
  for (int round = 0; round < 50; ++round) {
    SharerSet s(params(rc.rep, rc.nodes, rc.region, rc.pointers));
    std::set<NodeId> ref;
    for (int op = 0; op < 200; ++op) {
      const auto n = static_cast<NodeId>(rng.next_below(rc.nodes));
      const std::uint64_t act = rng.next_below(100);
      if (act < 70) {
        s.add(n);
        ref.insert(n);
      } else if (act < 95) {
        // Only kFull supports in-place removal; for lossy reps the
        // directory rebuilds via assign(), modelled every few ops below.
        if (rc.rep == SharerRep::kFull) {
          s.remove(n);
          ref.erase(n);
        }
      } else {
        s.clear();
        ref.clear();
      }
      // Over-approximation: every reference member is represented.
      for (NodeId m : ref) ASSERT_TRUE(s.contains(m)) << "missing " << +m;
      ASSERT_GE(s.count(), ref.size());
      ASSERT_EQ(s.empty(), s.count() == 0);
      if (rc.exact) {
        ASSERT_EQ(s.to_vector(), sorted(ref));
        ASSERT_EQ(s.count(), ref.size());
      }
      // for_each is ascending and duplicate-free in every representation.
      const auto v = s.to_vector();
      ASSERT_TRUE(std::is_sorted(v.begin(), v.end()));
      ASSERT_EQ(std::adjacent_find(v.begin(), v.end()), v.end());
      for (NodeId m : v) ASSERT_LT(m, rc.nodes);
    }
    // assign() round-trip: re-encoding the expansion may widen the set
    // but never drops a member; for exact reps it is the identity.
    const SharerSet exact = s.expand();
    SharerSet rebuilt(params(rc.rep, rc.nodes, rc.region, rc.pointers));
    rebuilt.assign(exact);
    exact.for_each(
        [&rebuilt](NodeId n) { ASSERT_TRUE(rebuilt.contains(n)); });
    if (rc.exact) ASSERT_EQ(rebuilt.to_vector(), s.to_vector());
  }
}

TEST_P(SharerSetProperty, IntersectIsExact) {
  const RepCase rc = GetParam();
  sim::Rng rng(0xBEEFu + rc.nodes);
  for (int round = 0; round < 20; ++round) {
    SharerSet a(params(rc.rep, rc.nodes, rc.region, rc.pointers));
    SharerSet b(params(rc.rep, rc.nodes, rc.region, rc.pointers));
    for (int i = 0; i < 30; ++i) {
      a.add(static_cast<NodeId>(rng.next_below(rc.nodes)));
      b.add(static_cast<NodeId>(rng.next_below(rc.nodes)));
    }
    const SharerSet isect = SharerSet::intersect(a, b);
    // Exactly the represented members of both.
    isect.for_each([&](NodeId n) {
      ASSERT_TRUE(a.contains(n));
      ASSERT_TRUE(b.contains(n));
    });
    a.for_each([&](NodeId n) {
      if (b.contains(n)) ASSERT_TRUE(isect.contains(n));
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllReps, SharerSetProperty,
    ::testing::Values(
        RepCase{SharerRep::kFull, 0x48, 16, 1, 4, true},
        RepCase{SharerRep::kFull, 0xED, 64, 1, 4, true},
        RepCase{SharerRep::kFull, 0x55, 256, 1, 4, true},
        RepCase{SharerRep::kFull, 0xCB, 1024, 1, 4, true},
        RepCase{SharerRep::kCoarse, 0xFF, 16, 1, 4, true},  // region 1 = exact
        RepCase{SharerRep::kCoarse, 0x00, 64, 4, 4, false},
        RepCase{SharerRep::kCoarse, 0x55, 256, 16, 4, false},
        RepCase{SharerRep::kCoarse, 0x00, 1000, 7, 4, false},  // non-dividing K
        RepCase{SharerRep::kLimited, 0x8E, 16, 1, 16, true},   // cap = nodes
        RepCase{SharerRep::kLimited, 0x8B, 64, 1, 4, false},
        RepCase{SharerRep::kLimited, 0x7F, 1024, 1, 16, false}),
    [](const auto& info) {
      const RepCase& rc = info.param;
      std::string name = to_string(rc.rep);
      name += "_" + std::to_string(rc.nodes);
      name += "n_r" + std::to_string(rc.region);
      name += "_p" + std::to_string(rc.pointers);
      return name;
    });

// Transient (default-constructed) sets: exact full-bit-vector over an
// unbounded domain — what UNBLOCK survivor sets and MSHR nacker sets use.
TEST(SharerSetTransient, UnboundedDomainGrowsOnDemand) {
  SharerSet s;
  s.add(900);
  s.add(2);
  EXPECT_TRUE(s.contains(900));
  EXPECT_EQ(s.to_vector(), (std::vector<NodeId>{2, 900}));
  s.remove(900);
  EXPECT_FALSE(s.contains(900));
}

TEST(SharerSetTransient, EqualityComparesMembership) {
  SharerSet a;
  a.add(1);
  a.add(2);
  SharerSet b(params(SharerRep::kLimited, 16, 4, 4));
  b.add(2);
  b.add(1);
  EXPECT_TRUE(a == b);  // same members, different representations
  b.add(3);
  EXPECT_FALSE(a == b);
}

// sharer_params() derives the directory-entry parameters from the config.
TEST(SharerSetParams, DerivedFromConfig) {
  SystemConfig cfg;
  cfg.num_nodes = 64;
  cfg.noc.mesh_width = 8;
  cfg.dir.sharer_rep = SharerRep::kLimited;
  cfg.dir.limited_pointers = 8;
  const auto p = sharer_params(cfg);
  EXPECT_EQ(p.rep, SharerRep::kLimited);
  EXPECT_EQ(p.num_nodes, 64);
  EXPECT_EQ(p.limited_pointers, 8);
}

}  // namespace
}  // namespace puno::coherence

// SharerSet: an exact set of node ids, and the three directory sharer
// encodings that Params::add applies when a directory records a sharer.
//
// The load-bearing property is over-approximation: whatever encoding the
// directory uses, a recorded sharer is always a member — that is what
// keeps the DIR-L1 inclusivity invariant true by construction. The
// property tests drive randomized add/remove/clear sequences against a
// reference std::set that applies the same rule (kCoarse inserts the
// region; kLimited, past its pointer count, inserts every node) and check
// that the set holds exactly the reference's members, in ascending order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
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

/// A directory sharer list holding `nodes`, each recorded through `p`.
[[nodiscard]] SharerSet recorded(const SharerSet::Params& p,
                                 std::initializer_list<NodeId> nodes) {
  SharerSet s;
  for (NodeId n : nodes) p.add(s, n);
  return s;
}

// --- kFull: exact at every size, including past the inline words ---

TEST(SharerSetFull, ExactSmall) {
  SharerSet s;
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
  SharerSet s;
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
  SharerSet a;
  a.add(7);
  a.add(300);
  SharerSet b = a;
  a.remove(300);
  a.add(301);
  EXPECT_TRUE(b.contains(300));
  EXPECT_FALSE(b.contains(301));
  SharerSet c;
  c.add(2);
  c = b;
  EXPECT_EQ(c.to_vector(), (std::vector<NodeId>{7, 300}));
}

// --- kCoarse: whole-region over-approximation ---

TEST(SharerSetCoarse, RegionGranularity) {
  const auto p = params(SharerRep::kCoarse, 16, /*region=*/4);
  SharerSet s = recorded(p, {5});  // records region 1 = nodes 4..7
  EXPECT_TRUE(s.contains(5));
  EXPECT_TRUE(s.contains(4));
  EXPECT_TRUE(s.contains(7));
  EXPECT_FALSE(s.contains(3));
  EXPECT_FALSE(s.contains(8));
  EXPECT_EQ(s.count(), 4u);
  EXPECT_EQ(s.to_vector(), (std::vector<NodeId>{4, 5, 6, 7}));
  // The directory rebuilds a list from survivors: clear, then record.
  s.clear();
  p.add(s, 12);
  EXPECT_FALSE(s.contains(5));
  EXPECT_TRUE(s.contains(12));
  EXPECT_EQ(s.count(), 4u);  // region 3 = nodes 12..15
}

TEST(SharerSetCoarse, LastRegionClipsToNumNodes) {
  // 10 nodes, region 4: regions are {0..3}, {4..7}, {8..9}.
  const SharerSet s =
      recorded(params(SharerRep::kCoarse, 10, /*region=*/4), {9});
  EXPECT_EQ(s.count(), 2u);
  EXPECT_EQ(s.to_vector(), (std::vector<NodeId>{8, 9}));
}

TEST(SharerSetCoarse, RegionOneIsExact) {
  const SharerSet s =
      recorded(params(SharerRep::kCoarse, 16, /*region=*/1), {2, 9});
  EXPECT_EQ(s.count(), 2u);
  EXPECT_TRUE(s.contains(2));
  EXPECT_FALSE(s.contains(3));
  EXPECT_EQ(s.to_vector(), (std::vector<NodeId>{2, 9}));
}

// --- kLimited: exact pointers until overflow, then broadcast ---

TEST(SharerSetLimited, ExactBelowCapacity) {
  const auto p = params(SharerRep::kLimited, 64, 4, /*pointers=*/4);
  // The duplicate 3 takes no pointer.
  SharerSet s = recorded(p, {40, 3, 17, 3});
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.to_vector(), (std::vector<NodeId>{3, 17, 40}));  // sorted
  s.remove(17);
  EXPECT_EQ(s.to_vector(), (std::vector<NodeId>{3, 40}));
  p.add(s, 63);
  p.add(s, 0);
  EXPECT_EQ(s.count(), 4u);  // exactly at capacity, still exact
  EXPECT_EQ(s.to_vector(), (std::vector<NodeId>{0, 3, 40, 63}));
}

TEST(SharerSetLimited, OverflowsToBroadcastAtCapacityPlusOne) {
  const auto p = params(SharerRep::kLimited, 32, 4, /*pointers=*/2);
  SharerSet s = recorded(p, {1, 2});
  EXPECT_EQ(s.count(), 2u);
  p.add(s, 3);  // third distinct sharer: overflow
  EXPECT_EQ(s.count(), 32u);
  for (NodeId n = 0; n < 32; ++n) EXPECT_TRUE(s.contains(n)) << n;
  // Recording a member of a broadcast list changes nothing.
  p.add(s, 7);
  EXPECT_EQ(s.count(), 32u);
  s.clear();
  EXPECT_TRUE(s.empty());
  // Re-adding a duplicate at capacity must NOT overflow.
  p.add(s, 4);
  p.add(s, 5);
  p.add(s, 5);
  EXPECT_EQ(s.to_vector(), (std::vector<NodeId>{4, 5}));
}

TEST(SharerSetLimited, ExpandOfBroadcastCoversMachine) {
  const SharerSet s =
      recorded(params(SharerRep::kLimited, 8, 4, /*pointers=*/1), {6, 1});
  ASSERT_EQ(s.count(), 8u);
  // A GETX from node 3 invalidates every other node.
  SharerSet others = s;
  others.remove(3);
  EXPECT_EQ(others.to_vector(), (std::vector<NodeId>{0, 1, 2, 4, 5, 6, 7}));
}

// --- Cross-encoding properties, randomized against std::set ---

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
  bool exact;  ///< the encoding records every set of `nodes` exactly
  std::uint8_t tail = 0;
};
static_assert(std::has_unique_object_representations_v<RepCase>,
              "padding in RepCase makes the gtest case names vary by build");

class SharerSetProperty : public ::testing::TestWithParam<RepCase> {};

/// The encoding rule on a std::set: what recording `n` adds under `rc`.
void reference_add(const RepCase& rc, std::set<NodeId>& ref, NodeId n) {
  switch (rc.rep) {
    case SharerRep::kFull:
      ref.insert(n);
      return;
    case SharerRep::kCoarse: {
      const NodeId lo = n / rc.region * rc.region;
      for (NodeId m = lo; m < lo + rc.region && m < rc.nodes; ++m) {
        ref.insert(m);
      }
      return;
    }
    case SharerRep::kLimited:
      if (ref.contains(n) || ref.size() < rc.pointers) {
        ref.insert(n);
        return;
      }
      for (NodeId m = 0; m < rc.nodes; ++m) ref.insert(m);
      return;
  }
}

TEST_P(SharerSetProperty, OverApproximatesReference) {
  const RepCase rc = GetParam();
  const auto p = params(rc.rep, rc.nodes, rc.region, rc.pointers);
  sim::Rng rng(0xC0FFEEu + static_cast<std::uint64_t>(rc.rep) * 997 +
               rc.nodes);
  for (int round = 0; round < 50; ++round) {
    SharerSet s;
    std::set<NodeId> ref;
    std::set<NodeId> recorded_nodes;
    for (int op = 0; op < 200; ++op) {
      const auto n = static_cast<NodeId>(rng.next_below(rc.nodes));
      const std::uint64_t act = rng.next_below(100);
      if (act < 70) {
        p.add(s, n);
        reference_add(rc, ref, n);
        recorded_nodes.insert(n);
      } else if (act < 95) {
        // The directory removes nodes only from exact sets; it rebuilds a
        // lossy list instead, modelled at the end of each round.
        if (rc.rep == SharerRep::kFull) {
          s.remove(n);
          ref.erase(n);
          recorded_nodes.erase(n);
        }
      } else {
        s.clear();
        ref.clear();
        recorded_nodes.clear();
      }
      // Exactly the reference's members, ascending and duplicate-free.
      ASSERT_EQ(s.to_vector(), sorted(ref));
      ASSERT_EQ(s.count(), ref.size());
      ASSERT_EQ(s.empty(), ref.empty());
      // Over-approximation: every recorded sharer is a member, and a
      // lossless encoding records nothing else.
      for (NodeId m : recorded_nodes) {
        ASSERT_TRUE(s.contains(m)) << "missing " << +m;
      }
      if (rc.exact) {
        ASSERT_EQ(ref, recorded_nodes);
      }
      for (NodeId m : ref) ASSERT_LT(m, rc.nodes);
    }
    // Rebuilding a list by recording its own members, ascending (what the
    // directory does after a failed multicast), gives the same list.
    SharerSet rebuilt;
    s.for_each([&](NodeId n) { p.add(rebuilt, n); });
    ASSERT_EQ(rebuilt.to_vector(), s.to_vector());
  }
}

TEST_P(SharerSetProperty, IntersectIsExact) {
  const RepCase rc = GetParam();
  const auto p = params(rc.rep, rc.nodes, rc.region, rc.pointers);
  sim::Rng rng(0xBEEFu + rc.nodes);
  for (int round = 0; round < 20; ++round) {
    SharerSet a;
    SharerSet b;
    for (int i = 0; i < 30; ++i) {
      p.add(a, static_cast<NodeId>(rng.next_below(rc.nodes)));
      p.add(b, static_cast<NodeId>(rng.next_below(rc.nodes)));
    }
    const SharerSet isect = SharerSet::intersect(a, b);
    // Exactly the members of both.
    isect.for_each([&](NodeId n) {
      ASSERT_TRUE(a.contains(n));
      ASSERT_TRUE(b.contains(n));
    });
    a.for_each([&](NodeId n) {
      if (b.contains(n)) {
        ASSERT_TRUE(isect.contains(n));
      }
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
    [](const auto& p) {
      const RepCase& rc = p.param;
      std::string name = to_string(rc.rep);
      name += "_";
      name += std::to_string(rc.nodes);
      name += "n_r";
      name += std::to_string(rc.region);
      name += "_p";
      name += std::to_string(rc.pointers);
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
  SharerSet b = recorded(params(SharerRep::kLimited, 16, 4, 4), {2, 1});
  EXPECT_TRUE(a == b);
  b.add(3);
  EXPECT_FALSE(a == b);
  // A set whose heap has grown equals one that never grew.
  SharerSet c = a;
  c.add(700);
  c.remove(700);
  EXPECT_TRUE(a == c);
  EXPECT_TRUE(c == a);
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

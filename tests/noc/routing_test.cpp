#include "noc/routing.hpp"

#include <gtest/gtest.h>

namespace puno::noc {
namespace {

TEST(Coord, RoundTrip) {
  for (NodeId n = 0; n < 16; ++n) {
    EXPECT_EQ(node_of(coord_of(n, 4), 4), n);
  }
}

TEST(Coord, Layout4x4) {
  EXPECT_EQ(coord_of(0, 4), (Coord{0, 0}));
  EXPECT_EQ(coord_of(3, 4), (Coord{3, 0}));
  EXPECT_EQ(coord_of(4, 4), (Coord{0, 1}));
  EXPECT_EQ(coord_of(15, 4), (Coord{3, 3}));
}

TEST(RouteXy, SelfRoutesLocal) {
  for (NodeId n = 0; n < 16; ++n) {
    EXPECT_EQ(route_xy(n, n, 4), Port::kLocal);
  }
}

TEST(RouteXy, XResolvedBeforeY) {
  // From node 0 (0,0) to node 15 (3,3): east first.
  EXPECT_EQ(route_xy(0, 15, 4), Port::kEast);
  // From node 3 (3,0) to node 15 (3,3): same column, go south.
  EXPECT_EQ(route_xy(3, 15, 4), Port::kSouth);
  // From node 15 back to 0: west first.
  EXPECT_EQ(route_xy(15, 0, 4), Port::kWest);
  // From node 12 (0,3) to 0 (0,0): north.
  EXPECT_EQ(route_xy(12, 0, 4), Port::kNorth);
}

TEST(RouteXy, EveryHopDecreasesDistance) {
  // Property: following the route always reaches the destination in exactly
  // hop_distance steps, never leaving the mesh.
  constexpr std::uint32_t kWidth = 4;
  for (NodeId src = 0; src < 16; ++src) {
    for (NodeId dst = 0; dst < 16; ++dst) {
      NodeId here = src;
      std::uint32_t steps = 0;
      while (here != dst) {
        const Port p = route_xy(here, dst, kWidth);
        ASSERT_NE(p, Port::kLocal);
        Coord c = coord_of(here, kWidth);
        switch (p) {
          case Port::kEast: ++c.x; break;
          case Port::kWest: --c.x; break;
          case Port::kSouth: ++c.y; break;
          case Port::kNorth: --c.y; break;
          case Port::kLocal: break;
        }
        ASSERT_GE(c.x, 0);
        ASSERT_LT(c.x, static_cast<std::int32_t>(kWidth));
        ASSERT_GE(c.y, 0);
        ASSERT_LT(c.y, static_cast<std::int32_t>(kWidth));
        here = node_of(c, kWidth);
        ++steps;
        ASSERT_LE(steps, 8u) << "route must terminate";
      }
      EXPECT_EQ(steps, hop_distance(src, dst, kWidth));
    }
  }
}

TEST(HopDistance, Symmetric) {
  for (NodeId a = 0; a < 16; ++a) {
    for (NodeId b = 0; b < 16; ++b) {
      EXPECT_EQ(hop_distance(a, b, 4), hop_distance(b, a, 4));
    }
  }
}

TEST(HopDistance, KnownValues) {
  EXPECT_EQ(hop_distance(0, 0, 4), 0u);
  EXPECT_EQ(hop_distance(0, 3, 4), 3u);
  EXPECT_EQ(hop_distance(0, 15, 4), 6u);
  EXPECT_EQ(hop_distance(5, 6, 4), 1u);
}

TEST(HopDistance, ClosedFormTotalMatchesAllPairsSum) {
  for (std::uint32_t w = 1; w <= 16; ++w) {
    for (std::uint32_t h = 1; h <= 16; ++h) {
      const auto n = static_cast<NodeId>(w * h);
      std::uint64_t sum = 0;
      for (NodeId a = 0; a < n; ++a) {
        for (NodeId b = 0; b < n; ++b) sum += hop_distance(a, b, w);
      }
      EXPECT_EQ(total_hop_distance(w, h), sum) << w << "x" << h;
    }
  }
}

TEST(Port, Names) {
  EXPECT_STREQ(to_string(Port::kLocal), "L");
  EXPECT_STREQ(to_string(Port::kNorth), "N");
  EXPECT_STREQ(to_string(Port::kEast), "E");
}

}  // namespace
}  // namespace puno::noc

// Mesh-width property sweep: routing and delivery must hold on any square
// mesh, not just the paper's 4x4.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "noc/mesh.hpp"
#include "sim/rng.hpp"

namespace puno::noc {
namespace {

struct TestPayload {
  explicit TestPayload(int v) : value(v) {}
  int value;
};

class MeshWidthTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MeshWidthTest, RoutingTerminatesForAllPairs) {
  const std::uint32_t width = GetParam();
  const auto n = static_cast<NodeId>(width * width);
  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n; ++dst) {
      NodeId here = src;
      std::uint32_t steps = 0;
      while (here != dst) {
        const Port p = route_xy(here, dst, width);
        ASSERT_NE(p, Port::kLocal);
        Coord c = coord_of(here, width);
        switch (p) {
          case Port::kEast: ++c.x; break;
          case Port::kWest: --c.x; break;
          case Port::kSouth: ++c.y; break;
          case Port::kNorth: --c.y; break;
          case Port::kLocal: break;
        }
        here = node_of(c, width);
        ASSERT_LE(++steps, 2 * width);
      }
      ASSERT_EQ(steps, hop_distance(src, dst, width));
    }
  }
}

TEST_P(MeshWidthTest, AllToAllTrafficDelivered) {
  const std::uint32_t width = GetParam();
  sim::Kernel kernel;
  NocConfig cfg;
  cfg.mesh_width = width;
  Mesh mesh(kernel, cfg);
  kernel.add_tickable(mesh);
  const auto n = static_cast<NodeId>(width * width);

  int delivered = 0;
  for (NodeId d = 0; d < n; ++d) {
    mesh.set_handler(d, [&](Packet) { ++delivered; });
  }
  int sent = 0;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s == d) continue;
      mesh.send(s, d, VNet::kRequest, 0, std::make_shared<TestPayload>(1));
      ++sent;
    }
  }
  kernel.run_until([&] { return delivered == sent && mesh.idle(); },
                   200000);
  EXPECT_EQ(delivered, sent);
  EXPECT_TRUE(mesh.idle());
}

TEST_P(MeshWidthTest, C2CLatencyGrowsWithWidth) {
  const std::uint32_t width = GetParam();
  sim::Kernel k1, k2;
  NocConfig small;
  small.mesh_width = 2;
  NocConfig cfg;
  cfg.mesh_width = width;
  Mesh m_small(k1, small);
  Mesh m(k2, cfg);
  if (width > 2) {
    EXPECT_GT(m.average_c2c_latency(), m_small.average_c2c_latency());
  } else {
    EXPECT_EQ(m.average_c2c_latency(), m_small.average_c2c_latency());
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MeshWidthTest,
                         ::testing::Values(2u, 3u, 4u, 5u, 8u),
                         [](const auto& p) {
                           return std::string("w").append(
                               std::to_string(p.param));
                         });

}  // namespace
}  // namespace puno::noc

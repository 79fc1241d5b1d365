// Parameterized NoC sweep: random traffic is fully delivered, every flit
// accounted for each cycle, and a lone packet takes its exact zero-load time.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>

#include "noc/mesh.hpp"
#include "sim/rng.hpp"

namespace puno::noc {
namespace {

struct TestPayload final : PacketPayload {
  explicit TestPayload(int v) : value(v) {}
  int value;
};

// (vc_depth, vcs_per_vnet, pipeline_stages, link_latency)
using NocParam = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                            std::uint32_t>;

class NocParamTest : public ::testing::TestWithParam<NocParam> {};

TEST_P(NocParamTest, RandomTrafficFullyDelivered) {
  const auto& [depth, vcs, stages, link] = GetParam();
  sim::Kernel kernel;
  NocConfig cfg;
  cfg.vc_depth = depth;
  cfg.vcs_per_vnet = vcs;
  cfg.pipeline_stages = stages;
  cfg.link_latency = link;
  Mesh mesh(kernel, cfg);
  kernel.add_tickable(mesh);
  sim::Rng rng(99, depth * 1000 + vcs * 100 + stages * 10 + link);

  int delivered = 0;
  std::map<int, int> outstanding;
  for (NodeId d = 0; d < 16; ++d) {
    mesh.set_handler(d, [&](Packet p) {
      ++delivered;
      --outstanding[static_cast<const TestPayload*>(p.payload.get())->value];
    });
  }

  constexpr int kPackets = 600;
  int sent = 0;
  std::function<void()> injector = [&] {
    for (int burst = 0; burst < 6 && sent < kPackets; ++burst, ++sent) {
      const auto src = static_cast<NodeId>(rng.next_below(16));
      auto dst = static_cast<NodeId>(rng.next_below(16));
      if (dst == src) dst = static_cast<NodeId>((dst + 1) % 16);
      ++outstanding[sent];
      mesh.send(src, dst, static_cast<VNet>(rng.next_below(3)),
                rng.next_bool(0.4) ? 64 : 0,
                std::make_shared<TestPayload>(sent));
    }
    if (sent < kPackets) kernel.schedule(3, injector);
  };
  kernel.schedule(1, injector);

  // Flit conservation at every post-cycle boundary: each injected flit is
  // ejected, in the link stage, or buffered in a router.
  const sim::Counter& injected = kernel.stats().counter("noc.flits_sent");
  const sim::Counter& ejected = kernel.stats().counter("noc.flits_ejected");
  std::uint64_t unbalanced_cycles = 0;
  kernel.add_post_cycle_hook([&](Cycle) {
    const std::uint64_t accounted = ejected.value() +
                                    mesh.inflight_link_flits() +
                                    mesh.buffered_router_flits();
    unbalanced_cycles += injected.value() != accounted;
  });

  kernel.run_until([&] { return delivered == kPackets && mesh.idle(); },
                   1'000'000);
  EXPECT_EQ(unbalanced_cycles, 0u);
  EXPECT_EQ(ejected.value(), injected.value());
  EXPECT_EQ(delivered, kPackets);
  EXPECT_TRUE(mesh.idle());
  for (const auto& [id, count] : outstanding) {
    ASSERT_EQ(count, 0) << "packet " << id;
  }
}

TEST_P(NocParamTest, LatencyLowerBoundRespected) {
  const auto& [depth, vcs, stages, link] = GetParam();
  sim::Kernel kernel;
  NocConfig cfg;
  cfg.vc_depth = depth;
  cfg.vcs_per_vnet = vcs;
  cfg.pipeline_stages = stages;
  cfg.link_latency = link;
  Mesh mesh(kernel, cfg);
  kernel.add_tickable(mesh);

  Cycle arrived = 0;
  mesh.set_handler(15, [&](Packet) { arrived = kernel.now(); });
  const Cycle sent_at = kernel.now();
  mesh.send(0, 15, VNet::kRequest, 0, std::make_shared<TestPayload>(1));
  kernel.run_until([&] { return arrived != 0; }, 10000);
  ASSERT_NE(arrived, 0u);
  // A lone single-flit packet never waits: it spends (pipeline - 1) cycles
  // in each of the 7 routers from node 0 to node 15 and one link after
  // each, the last one into the destination NI.
  EXPECT_EQ(arrived - sent_at, 7 * (stages - 1 + link));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NocParamTest,
    ::testing::Combine(::testing::Values(2u, 4u, 8u),   // vc_depth
                       ::testing::Values(1u, 2u, 4u),   // vcs_per_vnet
                       ::testing::Values(2u, 4u),       // pipeline stages
                       ::testing::Values(1u, 2u)),      // link latency
    [](const ::testing::TestParamInfo<NocParam>& info) {
      // std::get (not structured bindings): brackets would split the macro
      // arguments.
      return "d" + std::to_string(std::get<0>(info.param)) + "_v" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param)) + "_l" +
             std::to_string(std::get<3>(info.param));
    });

}  // namespace
}  // namespace puno::noc

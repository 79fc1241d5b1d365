// Parameterized NoC sweep: random traffic is fully delivered, every flit
// accounted for each cycle, every delivery lands on its pinned cycle, and a
// lone packet takes its exact zero-load time.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
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

/// FNV-1a over every delivery (payload id, node, cycle) of a sweep point's
/// random traffic, in delivery order. Pins exact timing under contention
/// off the default config: a change to arbitration, credits or pipeline
/// timing at any point moves its digest.
struct DeliveryDigest {
  NocParam param;
  std::uint64_t digest;
};
constexpr DeliveryDigest kDeliveryDigests[] = {
    {{2u, 1u, 2u, 1u}, 0x7649b6134cdea0f5ULL},
    {{2u, 1u, 2u, 2u}, 0x327cc73c6cdd9ca1ULL},
    {{2u, 1u, 4u, 1u}, 0x916a07f4f11f1f86ULL},
    {{2u, 1u, 4u, 2u}, 0x72c18fbfcee1ded9ULL},
    {{2u, 2u, 2u, 1u}, 0x3d0a49eaddbd33a1ULL},
    {{2u, 2u, 2u, 2u}, 0x63bb99b5a341ad40ULL},
    {{2u, 2u, 4u, 1u}, 0xbc4cd78e44c7462dULL},
    {{2u, 2u, 4u, 2u}, 0x15f11b17c7be70c4ULL},
    {{2u, 4u, 2u, 1u}, 0x66a2cc96b116f3e7ULL},
    {{2u, 4u, 2u, 2u}, 0xfa6f30f02877ebacULL},
    {{2u, 4u, 4u, 1u}, 0x13f5a83eb8d7ab77ULL},
    {{2u, 4u, 4u, 2u}, 0xb9c04abe865a5906ULL},
    {{4u, 1u, 2u, 1u}, 0xbaf8c6f59351ddabULL},
    {{4u, 1u, 2u, 2u}, 0x029a0cc17f2762e1ULL},
    {{4u, 1u, 4u, 1u}, 0x44dcf512e97c414fULL},
    {{4u, 1u, 4u, 2u}, 0x38bcdae1db276162ULL},
    {{4u, 2u, 2u, 1u}, 0x25d36c00e9c9811bULL},
    {{4u, 2u, 2u, 2u}, 0x873f51c1641bd97fULL},
    {{4u, 2u, 4u, 1u}, 0x56561b9a5b3475a9ULL},
    {{4u, 2u, 4u, 2u}, 0xb8c7fe6994099a98ULL},
    {{4u, 4u, 2u, 1u}, 0x257e0c2c7a3c814bULL},
    {{4u, 4u, 2u, 2u}, 0xce49029c2b2f7910ULL},
    {{4u, 4u, 4u, 1u}, 0xfc96579f9c399b03ULL},
    {{4u, 4u, 4u, 2u}, 0x1317d4927b7052d2ULL},
    {{8u, 1u, 2u, 1u}, 0x14e03f53b0b68d34ULL},
    {{8u, 1u, 2u, 2u}, 0x1794734c3f1ed1a1ULL},
    {{8u, 1u, 4u, 1u}, 0x9790ce1ee003172fULL},
    {{8u, 1u, 4u, 2u}, 0x181308849089c995ULL},
    {{8u, 2u, 2u, 1u}, 0x58713044d7645e24ULL},
    {{8u, 2u, 2u, 2u}, 0x0e69c1a803d2b82fULL},
    {{8u, 2u, 4u, 1u}, 0x9df561b0688206ecULL},
    {{8u, 2u, 4u, 2u}, 0xcb1c36f9867f3049ULL},
    {{8u, 4u, 2u, 1u}, 0xccdc2658485f389dULL},
    {{8u, 4u, 2u, 2u}, 0x4d4ec1731151be9eULL},
    {{8u, 4u, 4u, 1u}, 0x126fabc3a9746fd1ULL},
    {{8u, 4u, 4u, 2u}, 0x3b4a9b89de011268ULL},
};

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

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
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (NodeId d = 0; d < 16; ++d) {
    mesh.set_handler(d, [&, d](Packet p) {
      ++delivered;
      const int id = static_cast<const TestPayload*>(p.payload.get())->value;
      --outstanding[id];
      mix(digest, static_cast<std::uint64_t>(id));
      mix(digest, d);
      mix(digest, kernel.now());
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
  const auto pinned = std::find_if(
      std::begin(kDeliveryDigests), std::end(kDeliveryDigests),
      [&](const DeliveryDigest& row) { return row.param == GetParam(); });
  ASSERT_NE(pinned, std::end(kDeliveryDigests)) << "no pinned digest";
  EXPECT_EQ(digest, pinned->digest) << std::hex << "got 0x" << digest;
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

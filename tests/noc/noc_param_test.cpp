// Parameterized NoC sweep: random traffic is fully delivered, every flit
// accounted for each cycle, every delivery lands on its pinned cycle, the
// buffered/in-flight gauges read their pinned values at every cycle, and a
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

struct TestPayload {
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
    {{2u, 1u, 1u, 1u}, 0x160fe6b1c324f8d9ULL},
    {{2u, 1u, 1u, 2u}, 0x4a1972ea5b5551b0ULL},
    {{2u, 1u, 2u, 1u}, 0x7649b6134cdea0f5ULL},
    {{2u, 1u, 2u, 2u}, 0x327cc73c6cdd9ca1ULL},
    {{2u, 1u, 4u, 1u}, 0x916a07f4f11f1f86ULL},
    {{2u, 1u, 4u, 2u}, 0x72c18fbfcee1ded9ULL},
    {{2u, 2u, 1u, 1u}, 0xd75819d79ecc6eeeULL},
    {{2u, 2u, 1u, 2u}, 0x178b2955502280b5ULL},
    {{2u, 2u, 2u, 1u}, 0x3d0a49eaddbd33a1ULL},
    {{2u, 2u, 2u, 2u}, 0x63bb99b5a341ad40ULL},
    {{2u, 2u, 4u, 1u}, 0xbc4cd78e44c7462dULL},
    {{2u, 2u, 4u, 2u}, 0x15f11b17c7be70c4ULL},
    {{2u, 4u, 1u, 1u}, 0x4c56a2bf44639942ULL},
    {{2u, 4u, 1u, 2u}, 0xf09890618aeb2503ULL},
    {{2u, 4u, 2u, 1u}, 0x66a2cc96b116f3e7ULL},
    {{2u, 4u, 2u, 2u}, 0xfa6f30f02877ebacULL},
    {{2u, 4u, 4u, 1u}, 0x13f5a83eb8d7ab77ULL},
    {{2u, 4u, 4u, 2u}, 0xb9c04abe865a5906ULL},
    {{4u, 1u, 1u, 1u}, 0x86f0ba879484d824ULL},
    {{4u, 1u, 1u, 2u}, 0x69daea9b7c77fcd6ULL},
    {{4u, 1u, 2u, 1u}, 0xbaf8c6f59351ddabULL},
    {{4u, 1u, 2u, 2u}, 0x029a0cc17f2762e1ULL},
    {{4u, 1u, 4u, 1u}, 0x44dcf512e97c414fULL},
    {{4u, 1u, 4u, 2u}, 0x38bcdae1db276162ULL},
    {{4u, 2u, 1u, 1u}, 0x4af0703ffaf97813ULL},
    {{4u, 2u, 1u, 2u}, 0x846ea4114ed33425ULL},
    {{4u, 2u, 2u, 1u}, 0x25d36c00e9c9811bULL},
    {{4u, 2u, 2u, 2u}, 0x873f51c1641bd97fULL},
    {{4u, 2u, 4u, 1u}, 0x56561b9a5b3475a9ULL},
    {{4u, 2u, 4u, 2u}, 0xb8c7fe6994099a98ULL},
    {{4u, 4u, 1u, 1u}, 0x29e92f02194a9574ULL},
    {{4u, 4u, 1u, 2u}, 0x450b2814db4af331ULL},
    {{4u, 4u, 2u, 1u}, 0x257e0c2c7a3c814bULL},
    {{4u, 4u, 2u, 2u}, 0xce49029c2b2f7910ULL},
    {{4u, 4u, 4u, 1u}, 0xfc96579f9c399b03ULL},
    {{4u, 4u, 4u, 2u}, 0x1317d4927b7052d2ULL},
    {{8u, 1u, 1u, 1u}, 0x0d5239b47789d5fdULL},
    {{8u, 1u, 1u, 2u}, 0x362111247c596f43ULL},
    {{8u, 1u, 2u, 1u}, 0x14e03f53b0b68d34ULL},
    {{8u, 1u, 2u, 2u}, 0x1794734c3f1ed1a1ULL},
    {{8u, 1u, 4u, 1u}, 0x9790ce1ee003172fULL},
    {{8u, 1u, 4u, 2u}, 0x181308849089c995ULL},
    {{8u, 2u, 1u, 1u}, 0x10f6af6b7e23c72cULL},
    {{8u, 2u, 1u, 2u}, 0xfc8e4b9e193da4dcULL},
    {{8u, 2u, 2u, 1u}, 0x58713044d7645e24ULL},
    {{8u, 2u, 2u, 2u}, 0x0e69c1a803d2b82fULL},
    {{8u, 2u, 4u, 1u}, 0x9df561b0688206ecULL},
    {{8u, 2u, 4u, 2u}, 0xcb1c36f9867f3049ULL},
    {{8u, 4u, 1u, 1u}, 0x614edfabdb6f4a90ULL},
    {{8u, 4u, 1u, 2u}, 0x86d548ad24f912f4ULL},
    {{8u, 4u, 2u, 1u}, 0xccdc2658485f389dULL},
    {{8u, 4u, 2u, 2u}, 0x4d4ec1731151be9eULL},
    {{8u, 4u, 4u, 1u}, 0x126fabc3a9746fd1ULL},
    {{8u, 4u, 4u, 2u}, 0x3b4a9b89de011268ULL},
};

/// FNV-1a over the NoC gauges at every post-cycle boundary of the same
/// traffic: buffered_router_flits(), inflight_link_flits() and each
/// router's buffered count as the telemetry sampler reads it. Pins where
/// the mesh reports each flit, cycle by cycle: a flit still in a router's
/// pipeline counts as buffered in that router, not on the link.
constexpr DeliveryDigest kGaugeDigests[] = {
    {{2u, 1u, 1u, 1u}, 0x223d5c09cf1e1d52ULL},
    {{2u, 1u, 1u, 2u}, 0x178ba08ac50de2d7ULL},
    {{2u, 1u, 2u, 1u}, 0x16f30f86d17fa08cULL},
    {{2u, 1u, 2u, 2u}, 0x3a84048cd0b48375ULL},
    {{2u, 1u, 4u, 1u}, 0x1e9e12e2f1b428a6ULL},
    {{2u, 1u, 4u, 2u}, 0xd635207bc92cda7bULL},
    {{2u, 2u, 1u, 1u}, 0x77aeaaca24c4c094ULL},
    {{2u, 2u, 1u, 2u}, 0x430aa2099cabc1d7ULL},
    {{2u, 2u, 2u, 1u}, 0xd983cc091d52c39aULL},
    {{2u, 2u, 2u, 2u}, 0xd8edcd5b003a2e81ULL},
    {{2u, 2u, 4u, 1u}, 0xf3ddb5c9e0692f82ULL},
    {{2u, 2u, 4u, 2u}, 0x1aa2284644f0623fULL},
    {{2u, 4u, 1u, 1u}, 0x5e64c7e4b8217647ULL},
    {{2u, 4u, 1u, 2u}, 0x2e267f07ea2ab59bULL},
    {{2u, 4u, 2u, 1u}, 0xdff41232ba680965ULL},
    {{2u, 4u, 2u, 2u}, 0x8b2d63de77369223ULL},
    {{2u, 4u, 4u, 1u}, 0x2f22f25a1cd7b324ULL},
    {{2u, 4u, 4u, 2u}, 0x64b260978f379bd3ULL},
    {{4u, 1u, 1u, 1u}, 0x7c176d3c6d536864ULL},
    {{4u, 1u, 1u, 2u}, 0x1775ef2ddd5e5d1fULL},
    {{4u, 1u, 2u, 1u}, 0xe402d88b39844377ULL},
    {{4u, 1u, 2u, 2u}, 0x51c01d35f168d48dULL},
    {{4u, 1u, 4u, 1u}, 0xb9a50ccd1f383eb4ULL},
    {{4u, 1u, 4u, 2u}, 0xd0a65641d519c575ULL},
    {{4u, 2u, 1u, 1u}, 0x236a2613b07098e0ULL},
    {{4u, 2u, 1u, 2u}, 0x2f657d14e85ac061ULL},
    {{4u, 2u, 2u, 1u}, 0x5cb70ddbc0a27d81ULL},
    {{4u, 2u, 2u, 2u}, 0x79f65c87af434d3bULL},
    {{4u, 2u, 4u, 1u}, 0x9fe089915a7c1347ULL},
    {{4u, 2u, 4u, 2u}, 0x22b5512666f8bb9dULL},
    {{4u, 4u, 1u, 1u}, 0x9ac762806b2eac9fULL},
    {{4u, 4u, 1u, 2u}, 0x143d455cd5a767f9ULL},
    {{4u, 4u, 2u, 1u}, 0xa2e473c174df9183ULL},
    {{4u, 4u, 2u, 2u}, 0x9b3ef89e097b7bb7ULL},
    {{4u, 4u, 4u, 1u}, 0xb0eb47ba1fd1a81fULL},
    {{4u, 4u, 4u, 2u}, 0xa211da20fb5346afULL},
    {{8u, 1u, 1u, 1u}, 0x2aebd4329de6a630ULL},
    {{8u, 1u, 1u, 2u}, 0x0e66102a558054e1ULL},
    {{8u, 1u, 2u, 1u}, 0xb9a85101e3ceb290ULL},
    {{8u, 1u, 2u, 2u}, 0xb4421b6162af5e95ULL},
    {{8u, 1u, 4u, 1u}, 0x846c1052629ed70eULL},
    {{8u, 1u, 4u, 2u}, 0x48842fbe55bf6273ULL},
    {{8u, 2u, 1u, 1u}, 0xc5df4449508d4f7dULL},
    {{8u, 2u, 1u, 2u}, 0x95fddcae063cc60fULL},
    {{8u, 2u, 2u, 1u}, 0xfecc80b38f74d3dcULL},
    {{8u, 2u, 2u, 2u}, 0xf67e391595668c91ULL},
    {{8u, 2u, 4u, 1u}, 0xa657316054abbf9cULL},
    {{8u, 2u, 4u, 2u}, 0xfca416951ff2642dULL},
    {{8u, 4u, 1u, 1u}, 0x8f59e359030a5461ULL},
    {{8u, 4u, 1u, 2u}, 0x09f92a7b5e19d445ULL},
    {{8u, 4u, 2u, 1u}, 0x0d2a927525ee818fULL},
    {{8u, 4u, 2u, 2u}, 0x571b3fdd324758c1ULL},
    {{8u, 4u, 4u, 1u}, 0x0a87a74a70f4ea16ULL},
    {{8u, 4u, 4u, 2u}, 0x2f647c00b222e099ULL},
};

/// The row of `table` pinned for `param`, or null.
template <std::size_t N>
const DeliveryDigest* find_row(const DeliveryDigest (&table)[N],
                               const NocParam& param) {
  const auto row = std::find_if(
      std::begin(table), std::end(table),
      [&](const DeliveryDigest& r) { return r.param == param; });
  return row == std::end(table) ? nullptr : row;
}

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
  std::uint64_t gauges = 0xcbf29ce484222325ULL;
  kernel.add_post_cycle_hook([&](Cycle) {
    const std::uint64_t accounted = ejected.value() +
                                    mesh.inflight_link_flits() +
                                    mesh.buffered_router_flits();
    unbalanced_cycles += injected.value() != accounted;
    mix(gauges, mesh.buffered_router_flits());
    mix(gauges, mesh.inflight_link_flits());
    for (NodeId n = 0; n < mesh.num_nodes(); ++n) {
      mix(gauges, mesh.buffered_flits(n));
    }
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
  const DeliveryDigest* pinned = find_row(kDeliveryDigests, GetParam());
  ASSERT_NE(pinned, nullptr) << "no pinned digest, got 0x" << std::hex
                             << digest;
  EXPECT_EQ(digest, pinned->digest) << std::hex << "got 0x" << digest;
  const DeliveryDigest* pinned_gauges = find_row(kGaugeDigests, GetParam());
  ASSERT_NE(pinned_gauges, nullptr) << "no pinned gauge digest, got 0x"
                                    << std::hex << gauges;
  EXPECT_EQ(gauges, pinned_gauges->digest) << std::hex << "got 0x" << gauges;
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
  // A lone single-flit packet never waits. With d = pipeline - 1, the
  // source router switches it d cycles after its NI injects it; each of the
  // 6 later routers switches it max(d, 1) cycles after it crosses the link
  // in (a link arrival lands after that cycle's router pass); 7 links in
  // all, the last one into the destination NI. For d >= 1 that is
  // 7 * (d + link).
  const Cycle d = stages - 1;
  EXPECT_EQ(arrived - sent_at, d + 6 * std::max<Cycle>(d, 1) + 7 * link);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NocParamTest,
    ::testing::Combine(::testing::Values(2u, 4u, 8u),   // vc_depth
                       ::testing::Values(1u, 2u, 4u),   // vcs_per_vnet
                       ::testing::Values(1u, 2u, 4u),   // pipeline stages
                       ::testing::Values(1u, 2u)),      // link latency
    [](const ::testing::TestParamInfo<NocParam>& p) {
      // std::get (not structured bindings): brackets would split the macro
      // arguments. Appending piece by piece keeps GCC 12's -O3 -Wrestrict
      // false positive on `"d" + std::string` away.
      std::string name = "d";
      name += std::to_string(std::get<0>(p.param));
      name += "_v";
      name += std::to_string(std::get<1>(p.param));
      name += "_s";
      name += std::to_string(std::get<2>(p.param));
      name += "_l";
      name += std::to_string(std::get<3>(p.param));
      return name;
    });

}  // namespace
}  // namespace puno::noc

#include "noc/mesh.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "sim/rng.hpp"

namespace puno::noc {
namespace {

struct TestPayload {
  explicit TestPayload(int v) : value(v) {}
  int value;
};

TEST(Mesh, DeliversSingleControlPacket) {
  sim::Kernel kernel;
  NocConfig cfg;
  Mesh mesh(kernel, cfg);
  kernel.add_tickable(mesh);

  int got = 0;
  NodeId from = kInvalidNode;
  mesh.set_handler(15, [&](Packet p) {
    got = static_cast<const TestPayload*>(p.payload.get())->value;
    from = p.src;
  });
  mesh.send(0, 15, VNet::kRequest, 0, std::make_shared<TestPayload>(42));
  kernel.run_until([&] { return got == 42; }, 1000);
  EXPECT_EQ(got, 42);
  EXPECT_EQ(from, 0);
}

TEST(Mesh, LatencyScalesWithDistance) {
  sim::Kernel kernel;
  NocConfig cfg;
  Mesh mesh(kernel, cfg);
  kernel.add_tickable(mesh);

  Cycle t_near = 0, t_far = 0;
  mesh.set_handler(1, [&](Packet) { t_near = kernel.now(); });
  mesh.set_handler(15, [&](Packet) { t_far = kernel.now(); });
  mesh.send(0, 1, VNet::kRequest, 0, std::make_shared<TestPayload>(1));
  mesh.send(0, 15, VNet::kRequest, 0, std::make_shared<TestPayload>(2));
  kernel.run_until([&] { return t_near != 0 && t_far != 0; }, 1000);
  EXPECT_GT(t_far, t_near) << "6 hops must take longer than 1 hop";
}

TEST(Mesh, DataPacketsCarryMultipleFlits) {
  sim::Kernel kernel;
  NocConfig cfg;
  Mesh mesh(kernel, cfg);
  kernel.add_tickable(mesh);

  bool got = false;
  mesh.set_handler(3, [&](Packet p) {
    got = true;
    EXPECT_EQ(p.src, 0);
  });
  // 64-byte line at 16-byte flits: 1 head + 4 body.
  mesh.send(0, 3, VNet::kResponse, 64, std::make_shared<TestPayload>(7));
  kernel.run_until([&] { return got; }, 1000);
  ASSERT_TRUE(got);
  // 5 flits crossing 4 routers each (0 -> 1 -> 2 -> 3, including the
  // ejecting router's switch).
  EXPECT_EQ(mesh.router_traversals(), 5u * 4u);
}

TEST(Mesh, SelfSendBypassesNetwork) {
  sim::Kernel kernel;
  NocConfig cfg;
  Mesh mesh(kernel, cfg);
  kernel.add_tickable(mesh);

  bool got = false;
  mesh.set_handler(5, [&](Packet p) {
    got = true;
    EXPECT_EQ(p.src, 5);
  });
  mesh.send(5, 5, VNet::kRequest, 64, std::make_shared<TestPayload>(1));
  kernel.run_until([&] { return got; }, 100);
  EXPECT_TRUE(got);
  EXPECT_EQ(mesh.router_traversals(), 0u) << "same-tile messages stay local";
}

TEST(Mesh, TraversalCountMatchesHopsTimesFlits) {
  sim::Kernel kernel;
  NocConfig cfg;
  Mesh mesh(kernel, cfg);
  kernel.add_tickable(mesh);

  int got = 0;
  for (NodeId d = 1; d < 16; ++d) {
    mesh.set_handler(d, [&](Packet) { ++got; });
  }
  // One single-flit packet from 0 to each other node.
  std::uint64_t expected = 0;
  for (NodeId d = 1; d < 16; ++d) {
    mesh.send(0, d, VNet::kRequest, 0, std::make_shared<TestPayload>(d));
    expected += hop_distance(0, d, cfg.mesh_width) + 1;  // +1: source router
  }
  kernel.run_until([&] { return got == 15 && mesh.idle(); }, 5000);
  EXPECT_EQ(got, 15);
  EXPECT_EQ(mesh.router_traversals(), expected);
}

TEST(Mesh, ManyToOneAllArrive) {
  sim::Kernel kernel;
  NocConfig cfg;
  Mesh mesh(kernel, cfg);
  kernel.add_tickable(mesh);

  std::vector<int> got;
  mesh.set_handler(0, [&](Packet p) {
    got.push_back(static_cast<const TestPayload*>(p.payload.get())->value);
  });
  for (NodeId s = 1; s < 16; ++s) {
    for (int k = 0; k < 8; ++k) {
      mesh.send(s, 0, VNet::kResponse, 64,
                std::make_shared<TestPayload>(s * 100 + k));
    }
  }
  kernel.run_until([&] { return got.size() == 15u * 8u; }, 50000);
  EXPECT_EQ(got.size(), 15u * 8u) << "hotspot traffic must fully drain";
}

TEST(Mesh, AllVnetsDeliver) {
  sim::Kernel kernel;
  NocConfig cfg;
  Mesh mesh(kernel, cfg);
  kernel.add_tickable(mesh);

  int got = 0;
  mesh.set_handler(9, [&](Packet) { ++got; });
  mesh.send(2, 9, VNet::kRequest, 0, std::make_shared<TestPayload>(1));
  mesh.send(2, 9, VNet::kForward, 0, std::make_shared<TestPayload>(2));
  mesh.send(2, 9, VNet::kResponse, 0, std::make_shared<TestPayload>(3));
  kernel.run_until([&] { return got == 3; }, 1000);
  EXPECT_EQ(got, 3);
}

TEST(Mesh, RandomTrafficStressAllDelivered) {
  // Property-style stress: thousands of random packets of random sizes and
  // vnets; every single one must be delivered and the network must drain.
  sim::Kernel kernel;
  NocConfig cfg;
  Mesh mesh(kernel, cfg);
  kernel.add_tickable(mesh);
  sim::Rng rng(123, 0);

  std::map<int, int> outstanding;  // value -> count
  int delivered = 0;
  for (NodeId d = 0; d < 16; ++d) {
    mesh.set_handler(d, [&](Packet p) {
      ++delivered;
      const int v = static_cast<const TestPayload*>(p.payload.get())->value;
      --outstanding[v];
    });
  }

  constexpr int kPackets = 3000;
  int sent = 0;
  // Inject over time to avoid unbounded endpoint queues in one cycle.
  std::function<void()> injector = [&] {
    for (int burst = 0; burst < 8 && sent < kPackets; ++burst, ++sent) {
      const auto src = static_cast<NodeId>(rng.next_below(16));
      auto dst = static_cast<NodeId>(rng.next_below(16));
      if (dst == src) dst = static_cast<NodeId>((dst + 1) % 16);
      const auto vnet = static_cast<VNet>(rng.next_below(3));
      const std::uint32_t bytes = rng.next_bool(0.4) ? 64 : 0;
      ++outstanding[sent];
      mesh.send(src, dst, vnet, bytes, std::make_shared<TestPayload>(sent));
    }
    if (sent < kPackets) kernel.schedule(2, injector);
  };
  kernel.schedule(1, injector);

  kernel.run_until(
      [&] { return delivered == kPackets && mesh.idle(); }, 2'000'000);
  EXPECT_EQ(delivered, kPackets);
  EXPECT_TRUE(mesh.idle());
  for (const auto& [v, count] : outstanding) {
    EXPECT_EQ(count, 0) << "packet " << v << " delivered wrong # of times";
  }
}

// The arena owns each packet from send() until its tail flit is delivered:
// once mixed 1- and 5-flit traffic drains, no slot is live, and the arena
// grew no larger than the peak number of packets in flight.
TEST(Mesh, PacketArenaDrainsAndGrowsOnlyToPeakInFlight) {
  sim::Kernel kernel;
  NocConfig cfg;
  Mesh mesh(kernel, cfg);
  kernel.add_tickable(mesh);
  sim::Rng rng(7, 0);
  int delivered = 0;
  for (NodeId d = 0; d < 16; ++d) {
    mesh.set_handler(d, [&](Packet) { ++delivered; });
  }
  constexpr int kPackets = 2000;
  std::size_t peak = 0;
  for (int sent = 0; sent < kPackets; ++sent) {
    const auto src = static_cast<NodeId>(rng.next_below(16));
    auto dst = static_cast<NodeId>(rng.next_below(16));
    if (dst == src) dst = static_cast<NodeId>((dst + 1) % 16);
    const auto vnet = static_cast<VNet>(rng.next_below(3));
    mesh.send(src, dst, vnet, rng.next_bool(0.4) ? 64 : 0, nullptr);
    peak = std::max(peak, mesh.packet_pool().live());
    kernel.step();
  }
  kernel.run_until([&] { return delivered == kPackets && mesh.idle(); },
                   100000);
  EXPECT_EQ(delivered, kPackets);
  EXPECT_TRUE(mesh.idle());
  EXPECT_EQ(mesh.packet_pool().live(), 0u);
  EXPECT_GT(peak, 1u);
  EXPECT_LE(mesh.packet_pool().capacity(), peak);
}

// At a two-slot link stage (link_latency 1, pipeline_stages 1 or 2) the
// tick that returns a slot's credits also reuses the slot. With vc_depth 1
// every flit of a 5-flit packet waits at each hop for the credit its
// predecessor frees, so the cycle each flit ejects pins that ordering. The
// cycles were recorded with credits returned by a kernel event.
TEST(Mesh, TwoSlotStageStreamsAPacketAtTheRecordedCycles) {
  for (const std::uint32_t stages : {1u, 2u}) {
    sim::Kernel kernel;
    NocConfig cfg;
    cfg.link_latency = 1;
    cfg.pipeline_stages = stages;
    cfg.vc_depth = 1;
    Mesh mesh(kernel, cfg);
    kernel.add_tickable(mesh);
    const sim::Counter& ejected = kernel.stats().counter("noc.flits_ejected");
    mesh.send(0, 3, VNet::kResponse, 64, std::make_shared<TestPayload>(1));
    std::vector<Cycle> at;
    while (at.size() < 5 && kernel.now() < 200) {
      const Cycle now = kernel.now();
      const std::uint64_t before = ejected.value();
      kernel.step();
      for (std::uint64_t i = before; i < ejected.value(); ++i) {
        at.push_back(now);
      }
    }
    const std::vector<Cycle> want =
        stages == 1 ? std::vector<Cycle>{7, 11, 15, 19, 23}
                    : std::vector<Cycle>{8, 12, 16, 20, 24};
    EXPECT_EQ(at, want) << stages << " stage(s)";
  }
}

TEST(Mesh, AverageC2CLatencyMatchesAnalytical) {
  sim::Kernel kernel;
  NocConfig cfg;
  Mesh mesh(kernel, cfg);
  // 4x4 mesh: mean hop distance over ordered pairs = 8/3; per-hop cost =
  // pipeline (4) + link (1) = 5 -> 13.33 -> truncated 13.
  EXPECT_EQ(mesh.average_c2c_latency(), 13u);
}

TEST(Mesh, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Kernel kernel;
    NocConfig cfg;
    Mesh mesh(kernel, cfg);
    kernel.add_tickable(mesh);
    sim::Rng rng(77, 0);
    int delivered = 0;
    for (NodeId d = 0; d < 16; ++d) {
      mesh.set_handler(d, [&](Packet) { ++delivered; });
    }
    for (int i = 0; i < 500; ++i) {
      const auto src = static_cast<NodeId>(rng.next_below(16));
      auto dst = static_cast<NodeId>(rng.next_below(16));
      if (dst == src) dst = static_cast<NodeId>((dst + 1) % 16);
      mesh.send(src, dst, VNet::kRequest, rng.next_bool(0.5) ? 64 : 0,
                std::make_shared<TestPayload>(i));
    }
    kernel.run_until([&] { return delivered == 500 && mesh.idle(); },
                     200000);
    return std::pair<Cycle, std::uint64_t>{kernel.now(),
                                           mesh.router_traversals()};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace puno::noc

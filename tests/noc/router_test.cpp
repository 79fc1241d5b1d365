// Router-level unit tests: a single router ticked on its own, with the
// traversals its tick() appends read back directly, so VC allocation,
// credits and wormhole behaviour can be checked in isolation. A standalone
// router has no pipeline: a flit written into it may switch in the next
// tick. The pipeline delay the mesh serves is checked through a mesh.
#include "noc/router.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "noc/mesh.hpp"

namespace puno::noc {
namespace {

struct CapturedFlit {
  std::uint32_t vc;
  std::uint64_t packet_id;
  bool is_head;
  bool is_tail;
  Cycle at;  ///< Cycle the flit traversed the switch.
};

class RouterTest : public ::testing::Test {
 protected:
  // Node 5 of a 4x4 mesh (coord 1,1). Every output starts with vc_depth
  // credits (the local one with more), and nothing returns them unless a
  // test does.
  RouterTest()
      : coords_(coord_table(cfg_.mesh_width, cfg_.mesh_width * cfg_.rows())),
        router_(cfg_, /*id=*/5, coords_, traversals_) {}

  /// Allocates a packet in the test's arena; returns its slot id.
  PacketPool::Id make_packet(NodeId dst, std::uint32_t flits,
                             VNet vnet = VNet::kRequest) {
    const PacketPool::Id slot = pool_.allocate();
    Packet& pkt = pool_[slot];
    pkt.id = next_id_++;
    pkt.src = 0;
    pkt.dst = dst;
    pkt.vnet = vnet;
    pkt.num_flits = flits;
    return slot;
  }

  void inject(Port p, std::uint32_t vc, PacketPool::Id slot) {
    const Packet& pkt = pool_[slot];
    for (std::uint32_t i = 0; i < pkt.num_flits; ++i) {
      router_.receive_flit(p, vc,
                           Flit{.packet = slot,
                                .dst = pkt.dst,
                                .vnet = pkt.vnet,
                                .is_head = i == 0,
                                .is_tail = i + 1 == pkt.num_flits});
    }
  }

  // Ticks the router once per cycle, filing each traversal under its
  // output port and its freed input slot under its input port.
  void run(Cycle cycles) {
    for (Cycle c = 0; c < cycles; ++c, ++now_) {
      std::vector<Traversal> hops;
      std::vector<Traversal> ejects;
      router_.tick(hops, ejects);
      for (const auto* list : {&hops, &ejects}) {
        for (const Traversal& t : *list) {
          EXPECT_EQ(t.router, router_.id());
          EXPECT_EQ(t.out_port == Port::kLocal, list == &ejects);
          out_[static_cast<int>(t.out_port)].push_back(
              CapturedFlit{t.out_vc, pool_[t.flit.packet].id, t.flit.is_head,
                           t.flit.is_tail, now_});
          credits_returned_[static_cast<int>(t.in_port)].push_back(t.in_vc);
        }
      }
    }
  }

  PacketPool pool_;
  NocConfig cfg_;
  std::vector<Coord> coords_;
  sim::Counter traversals_;
  Router router_;
  Cycle now_ = 0;
  std::vector<CapturedFlit> out_[kNumPorts];
  std::vector<std::uint32_t> credits_returned_[kNumPorts];
  std::uint64_t next_id_ = 1;
};

TEST_F(RouterTest, RoutesEastWhenDstIsEast) {
  // Node 5 is (1,1); node 7 is (3,1): east.
  inject(Port::kLocal, 0, make_packet(7, 1));
  run(12);
  EXPECT_EQ(out_[static_cast<int>(Port::kEast)].size(), 1u);
}

TEST_F(RouterTest, RoutesToLocalForSelf) {
  inject(Port::kWest, 0, make_packet(5, 1));
  run(12);
  EXPECT_EQ(out_[static_cast<int>(Port::kLocal)].size(), 1u);
}

TEST_F(RouterTest, PipelineLatencyIsRespected) {
  // The mesh holds an injected flit in the router's pipeline: one its NI
  // injects at cycle C first switches at C + pipeline_stages - 1, in its
  // own cycle with a single stage.
  for (const std::uint32_t stages : {1u, 2u, 4u}) {
    sim::Kernel kernel;
    NocConfig cfg = cfg_;
    cfg.pipeline_stages = stages;
    Mesh mesh(kernel, cfg);
    kernel.add_tickable(mesh);
    kernel.run_for(5);
    const Cycle injected_at = kernel.now();
    mesh.send(5, 7, VNet::kRequest, 0, nullptr);
    Cycle switched_at = 0;
    while (switched_at == 0 && kernel.now() < 100) {
      const Cycle now = kernel.now();
      kernel.step();
      if (mesh.router(5).local_traversals() != 0) switched_at = now;
    }
    EXPECT_EQ(switched_at, injected_at + stages - 1) << stages << " stages";
  }
}

TEST_F(RouterTest, RouteMatchesRouteXyOnNonSquareMesh) {
  NocConfig cfg = cfg_;
  cfg.mesh_width = 5;
  cfg.mesh_height = 3;
  const auto n = static_cast<NodeId>(cfg.mesh_width * cfg.rows());
  const std::vector<Coord> coords = coord_table(cfg.mesh_width, n);
  for (NodeId here = 0; here < n; ++here) {
    const Router r(cfg, here, coords, traversals_);
    for (NodeId dst = 0; dst < n; ++dst) {
      EXPECT_EQ(r.route(dst), route_xy(here, dst, cfg.mesh_width))
          << here << " -> " << dst;
    }
  }
}

TEST_F(RouterTest, WormholeKeepsPacketContiguousPerVc) {
  auto a = make_packet(7, 3);
  inject(Port::kLocal, 0, a);
  run(20);
  const auto& flits = out_[static_cast<int>(Port::kEast)];
  ASSERT_EQ(flits.size(), 3u);
  EXPECT_TRUE(flits[0].is_head);
  EXPECT_TRUE(flits[2].is_tail);
  EXPECT_EQ(flits[0].packet_id, pool_[a].id);
  // All on the same output VC.
  EXPECT_EQ(flits[0].vc, flits[1].vc);
  EXPECT_EQ(flits[1].vc, flits[2].vc);
}

TEST_F(RouterTest, OneFlitPerOutputPortPerCycle) {
  inject(Port::kLocal, 0, make_packet(7, 4));
  run(20);
  const auto& flits = out_[static_cast<int>(Port::kEast)];
  ASSERT_EQ(flits.size(), 4u);
  for (std::size_t i = 1; i < flits.size(); ++i) {
    EXPECT_GT(flits[i].at, flits[i - 1].at);
  }
}

TEST_F(RouterTest, TwoInputsSameOutputArbitrated) {
  // Two single-flit packets from different input ports to the same output.
  inject(Port::kWest, 0, make_packet(7, 1));
  inject(Port::kNorth, 0, make_packet(7, 1));
  run(20);
  const auto& flits = out_[static_cast<int>(Port::kEast)];
  ASSERT_EQ(flits.size(), 2u);
  EXPECT_NE(flits[0].at, flits[1].at) << "output port serializes";
}

TEST_F(RouterTest, DistinctOutputsProceedInParallel) {
  inject(Port::kWest, 0, make_packet(7, 1));   // east
  inject(Port::kNorth, 1, make_packet(4, 1));  // west (node 4 is (0,1))
  run(20);
  ASSERT_EQ(out_[static_cast<int>(Port::kEast)].size(), 1u);
  ASSERT_EQ(out_[static_cast<int>(Port::kWest)].size(), 1u);
  EXPECT_EQ(out_[static_cast<int>(Port::kEast)][0].at,
            out_[static_cast<int>(Port::kWest)][0].at);
}

TEST_F(RouterTest, CreditsReturnedForForwardedFlits) {
  inject(Port::kWest, 2, make_packet(7, 3));
  run(20);
  EXPECT_EQ(credits_returned_[static_cast<int>(Port::kWest)].size(), 3u);
  for (std::uint32_t vc : credits_returned_[static_cast<int>(Port::kWest)]) {
    EXPECT_EQ(vc, 2u);
  }
}

TEST_F(RouterTest, StallsWithoutCreditsAndResumesOnReturn) {
  // Exhaust the east output's VC credits first.
  for (std::uint32_t i = 0; i < cfg_.vc_depth; ++i) {
    inject(Port::kLocal, 0, make_packet(7, 1));
  }
  run(40);
  const auto sent_before = out_[static_cast<int>(Port::kEast)].size();
  EXPECT_EQ(sent_before, cfg_.vc_depth) << "one VC's credits exhausted";

  inject(Port::kLocal, 0, make_packet(7, 1));
  run(10);
  EXPECT_EQ(out_[static_cast<int>(Port::kEast)].size(), sent_before)
      << "no credits -> no traversal";

  router_.return_credit(Port::kEast, out_[static_cast<int>(Port::kEast)][0].vc);
  run(10);
  EXPECT_EQ(out_[static_cast<int>(Port::kEast)].size(), sent_before + 1);
}

TEST_F(RouterTest, VnetVcPartitioningIsRespected) {
  auto req = make_packet(7, 1, VNet::kRequest);
  auto rsp = make_packet(7, 1, VNet::kResponse);
  inject(Port::kWest, 0, req);  // request vnet VCs: 0,1
  inject(Port::kWest, 4, rsp);  // response vnet VCs: 4,5
  run(20);
  const auto& flits = out_[static_cast<int>(Port::kEast)];
  ASSERT_EQ(flits.size(), 2u);
  for (const auto& f : flits) {
    if (f.packet_id == pool_[req].id) {
      EXPECT_LT(f.vc, 2u);
    }
    if (f.packet_id == pool_[rsp].id) {
      EXPECT_GE(f.vc, 4u);
    }
  }
}

TEST_F(RouterTest, IdleReflectsBufferedFlits) {
  EXPECT_TRUE(router_.idle());
  inject(Port::kLocal, 0, make_packet(7, 1));
  EXPECT_FALSE(router_.idle());
  run(20);
  EXPECT_TRUE(router_.idle());
}

TEST_F(RouterTest, TraversalCounterCountsEveryFlit) {
  // vc_depth (4) flits fit the input buffer and the downstream credits.
  inject(Port::kLocal, 0, make_packet(7, 4));
  run(30);
  EXPECT_EQ(traversals_.value(), 4u);
}

}  // namespace
}  // namespace puno::noc

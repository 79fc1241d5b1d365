#include "traffic/engine.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "arch/cmp.hpp"
#include "metrics/run_result.hpp"
#include "metrics/stats_io.hpp"
#include "sim/kernel.hpp"

namespace puno::traffic {
namespace {

constexpr std::uint32_t kBlock = 64;

[[nodiscard]] TrafficConfig small_config() {
  TrafficConfig cfg;
  cfg.arrivals_per_node = 20;
  cfg.keys = 512;
  cfg.rate_per_kcycle = 50;
  return cfg;
}

TEST(OpenLoopWorkload, DrainModeYieldsExactlyTheQuota) {
  OpenLoopWorkload wl(KernelKind::kMap, small_config(), 4, 1, kBlock);
  EXPECT_FALSE(wl.attached());
  EXPECT_EQ(wl.quota(), 20u);
  for (NodeId n = 0; n < 4; ++n) {
    for (std::uint64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(wl.next(n).has_value()) << "node " << n << " txn " << i;
    }
    EXPECT_FALSE(wl.next(n).has_value());
    EXPECT_FALSE(wl.next(n).has_value());  // stays exhausted
  }
  // Drain mode admits everything and drops nothing.
  EXPECT_EQ(wl.offered(), 80u);
  EXPECT_EQ(wl.admitted(), 80u);
  EXPECT_EQ(wl.begun(), 80u);
  EXPECT_EQ(wl.dropped(), 0u);
}

TEST(OpenLoopWorkload, ScaleMultipliesTheQuota) {
  const TrafficConfig cfg = small_config();
  EXPECT_EQ(OpenLoopWorkload(KernelKind::kMap, cfg, 2, 1, kBlock, 0.5)
                .quota(),
            10u);
  // Floored at one transaction so a tiny scale still runs something.
  EXPECT_EQ(OpenLoopWorkload(KernelKind::kMap, cfg, 2, 1, kBlock, 0.001)
                .quota(),
            1u);
}

TEST(OpenLoopWorkload, DrainModeIsDeterministic) {
  OpenLoopWorkload a(KernelKind::kQueue, small_config(), 4, 7, kBlock);
  OpenLoopWorkload b(KernelKind::kQueue, small_config(), 4, 7, kBlock);
  for (NodeId n = 0; n < 4; ++n) {
    for (;;) {
      const std::optional<workloads::TxnDesc> da = a.next(n);
      const std::optional<workloads::TxnDesc> db = b.next(n);
      ASSERT_EQ(da.has_value(), db.has_value());
      if (!da) break;
      ASSERT_EQ(da->static_id, db->static_id);
      ASSERT_EQ(da->pre_think, db->pre_think);
      ASSERT_EQ(da->ops.size(), db->ops.size());
      for (std::size_t j = 0; j < da->ops.size(); ++j) {
        EXPECT_EQ(da->ops[j].addr, db->ops[j].addr);
        EXPECT_EQ(da->ops[j].is_store, db->ops[j].is_store);
      }
    }
  }
}

TEST(OpenLoopWorkload, NodesProduceDecorrelatedStreams) {
  OpenLoopWorkload wl(KernelKind::kMap, small_config(), 2, 1, kBlock);
  std::vector<Addr> first_addr;
  bool differ = false;
  for (NodeId n = 0; n < 2; ++n) {
    const auto d = wl.next(n);
    ASSERT_TRUE(d.has_value());
    ASSERT_FALSE(d->ops.empty());
    first_addr.push_back(d->ops.back().addr);
  }
  // Two nodes drawing from independent streams; with 512 keys the chance of
  // an accidental clash on the first draw is small, and the full descriptor
  // stream diverging is what matters.
  for (int i = 0; i < 10; ++i) {
    const auto d0 = wl.next(0);
    const auto d1 = wl.next(1);
    if (!d0 || !d1) break;
    differ |= d0->ops.back().addr != d1->ops.back().addr ||
              d0->pre_think != d1->pre_think;
  }
  EXPECT_TRUE(differ);
}

TEST(OpenLoopWorkload, AttachedServesFutureArrivalsWithPreThink) {
  // A kernel that never advances (now() == 0): every poll pre-admits the
  // next future arrival, so pre_think must equal the arrival gap and the
  // bounded queue can never overflow.
  sim::Kernel kernel;
  OpenLoopWorkload wl(KernelKind::kSet, small_config(), 1, 3, kBlock);
  wl.attach(kernel);
  EXPECT_TRUE(wl.attached());

  std::uint64_t last_arrival = 0;
  for (std::uint64_t i = 0; i < wl.quota(); ++i) {
    const auto d = wl.next(0);
    ASSERT_TRUE(d.has_value());
    // pre_think carries the absolute arrival time here since now() == 0 and
    // arrivals strictly increase.
    EXPECT_GT(d->pre_think, last_arrival);
    last_arrival = d->pre_think;
  }
  EXPECT_FALSE(wl.next(0).has_value());
  EXPECT_EQ(wl.dropped(), 0u);
  EXPECT_EQ(wl.begun(), wl.quota());
  // The lazily-created stats mirror the accessors.
  EXPECT_EQ(kernel.stats().counter("traffic.offered").value(), wl.offered());
  EXPECT_EQ(kernel.stats().counter("traffic.dropped").value(), 0u);
}

TEST(OpenLoopWorkload, OverloadedSimulationShedsLoad) {
  // End to end: a high arrival rate against a tiny queue must drop, and the
  // conservation law offered == admitted + dropped, committed == admitted
  // must hold exactly once the run drains.
  SystemConfig cfg;
  cfg.noc.mesh_width = 2;
  cfg.num_nodes = 4;
  cfg.seed = 5;
  cfg.traffic.arrivals_per_node = 60;
  cfg.traffic.rate_per_kcycle = 200;  // far beyond service capacity
  cfg.traffic.queue_capacity = 2;
  cfg.traffic.keys = 64;

  OpenLoopWorkload wl(KernelKind::kQueue, cfg.traffic, cfg.num_nodes,
                      cfg.seed, kBlock);
  arch::Cmp cmp(cfg, wl);
  wl.attach(cmp.kernel());
  ASSERT_TRUE(cmp.run(2'000'000));

  EXPECT_EQ(wl.offered(), 240u);
  EXPECT_GT(wl.dropped(), 0u) << "rate 10x service with queue depth 2 must "
                                 "shed load";
  EXPECT_EQ(wl.offered(), wl.admitted() + wl.dropped());
  EXPECT_EQ(wl.begun(), wl.admitted());
  EXPECT_EQ(cmp.total_committed(), wl.admitted());
  // Queue delay histogram saw every admitted-from-queue request.
  const auto& hists = cmp.kernel().stats().histograms();
  const auto it = hists.find("traffic.queue_delay");
  ASSERT_NE(it, hists.end());
  EXPECT_EQ(it->second.total(), wl.begun());
}

TEST(OpenLoopWorkload, UncontendedSimulationDropsNothing) {
  SystemConfig cfg;
  cfg.noc.mesh_width = 2;
  cfg.num_nodes = 4;
  cfg.seed = 11;
  cfg.traffic.arrivals_per_node = 30;
  cfg.traffic.rate_per_kcycle = 5;  // one arrival per 200 cycles per core
  cfg.traffic.queue_capacity = 64;
  cfg.traffic.keys = 4096;
  cfg.traffic.zipf_theta = 0.0;  // uniform: almost no conflicts

  OpenLoopWorkload wl(KernelKind::kMap, cfg.traffic, cfg.num_nodes, cfg.seed,
                      kBlock);
  arch::Cmp cmp(cfg, wl);
  wl.attach(cmp.kernel());
  ASSERT_TRUE(cmp.run(2'000'000));

  EXPECT_EQ(wl.dropped(), 0u);
  EXPECT_EQ(cmp.total_committed(), 120u);
}

TEST(OpenLoopWorkload, CmpAttachesItAtConstruction) {
  // No caller attaches by hand: building the Cmp alone switches the
  // workload to open-loop mode and binds its traffic.* stats.
  SystemConfig cfg;
  cfg.noc.mesh_width = 2;
  cfg.num_nodes = 4;
  OpenLoopWorkload wl(KernelKind::kMap, small_config(), cfg.num_nodes,
                      cfg.seed, kBlock);
  arch::Cmp cmp(cfg, wl);
  EXPECT_TRUE(wl.attached());
  EXPECT_EQ(cmp.kernel().stats().counters().count("traffic.offered"), 1u);
}

TEST(OpenLoopWorkload, SecondAttachWithTheSameKernelChangesNothing) {
  // A caller that still attaches after construction (punobench does) must
  // get the byte-identical run, RunResult JSONL and stats CSV alike.
  const auto run = [](bool attach_again) {
    SystemConfig cfg;
    cfg.noc.mesh_width = 2;
    cfg.num_nodes = 4;
    cfg.seed = 5;
    cfg.traffic.arrivals_per_node = 60;
    cfg.traffic.rate_per_kcycle = 200;  // overloaded: queues fill and drop
    cfg.traffic.queue_capacity = 2;
    cfg.traffic.keys = 64;
    OpenLoopWorkload wl(KernelKind::kQueue, cfg.traffic, cfg.num_nodes,
                        cfg.seed, kBlock);
    arch::Cmp cmp(cfg, wl);
    if (attach_again) wl.attach(cmp.kernel());
    EXPECT_TRUE(cmp.run(2'000'000));
    EXPECT_GT(wl.dropped(), 0u);
    metrics::RunResult r = metrics::RunResult::from_stats(cmp.kernel().stats());
    r.cycles = cmp.kernel().now();
    std::ostringstream out;
    metrics::write_result_jsonl(r, out);
    metrics::write_stats_csv(cmp.kernel().stats(), out);
    return out.str();
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(OpenLoopWorkload, DropsConsumeNoGeneratorRandomness) {
  // The determinism contract: the descriptor bodies of admitted arrivals
  // depend only on the admitted prefix, so a capacity-1 run's descriptors
  // are a subsequence of the no-drop run's arrival-order stream. Verified
  // indirectly: two runs that admit everything agree regardless of queue
  // capacity (capacity only matters when drops occur).
  TrafficConfig big = small_config();
  big.queue_capacity = 1000;
  TrafficConfig small = small_config();
  small.queue_capacity = 64;

  OpenLoopWorkload a(KernelKind::kMap, big, 2, 9, kBlock);
  OpenLoopWorkload b(KernelKind::kMap, small, 2, 9, kBlock);
  sim::Kernel ka, kb;
  a.attach(ka);
  b.attach(kb);
  for (NodeId n = 0; n < 2; ++n) {
    for (;;) {
      const auto da = a.next(n);
      const auto db = b.next(n);
      ASSERT_EQ(da.has_value(), db.has_value());
      if (!da) break;
      ASSERT_EQ(da->ops.size(), db->ops.size());
      for (std::size_t j = 0; j < da->ops.size(); ++j) {
        EXPECT_EQ(da->ops[j].addr, db->ops[j].addr);
      }
    }
  }
}

}  // namespace
}  // namespace puno::traffic

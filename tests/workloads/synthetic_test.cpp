#include "workloads/synthetic.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

namespace puno::workloads {
namespace {

SyntheticSpec tiny_spec() {
  SyntheticSpec s;
  s.name = "tiny";
  s.txns_per_node = 10;
  s.hot_blocks = 4;
  s.anchor_blocks = 1;
  s.shared_blocks = 64;
  s.private_blocks_per_node = 16;
  StaticTxnSpec t;
  t.reads_min = 2;
  t.reads_max = 4;
  t.writes_min = 1;
  t.writes_max = 2;
  t.hot_read_frac = 0.5;
  t.hot_write_frac = 0.5;
  s.txns.push_back(t);
  return s;
}

TEST(SyntheticWorkload, HonoursPerNodeQuota) {
  SyntheticWorkload w(tiny_spec(), 4, 1);
  for (NodeId n = 0; n < 4; ++n) {
    int count = 0;
    while (w.next(n).has_value()) ++count;
    EXPECT_EQ(count, 10);
  }
}

TEST(SyntheticWorkload, NodesAreIndependentStreams) {
  SyntheticWorkload w(tiny_spec(), 2, 1);
  auto a = w.next(0);
  auto b = w.next(1);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  // Two nodes shouldn't generate identical transactions.
  const bool same = a->ops.size() == b->ops.size() &&
                    a->pre_think == b->pre_think &&
                    (a->ops.empty() || a->ops[0].addr == b->ops[0].addr);
  EXPECT_FALSE(same);
}

TEST(SyntheticWorkload, DeterministicForSameSeed) {
  SyntheticWorkload w1(tiny_spec(), 2, 7);
  SyntheticWorkload w2(tiny_spec(), 2, 7);
  for (int i = 0; i < 10; ++i) {
    auto a = w1.next(0);
    auto b = w2.next(0);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) break;
    ASSERT_EQ(a->ops.size(), b->ops.size());
    for (std::size_t k = 0; k < a->ops.size(); ++k) {
      EXPECT_EQ(a->ops[k].addr, b->ops[k].addr);
      EXPECT_EQ(a->ops[k].is_store, b->ops[k].is_store);
    }
  }
}

TEST(SyntheticWorkload, OpCountsWithinSpecBounds) {
  SyntheticWorkload w(tiny_spec(), 1, 3);
  while (auto d = w.next(0)) {
    std::uint32_t reads = 0, writes = 0;
    for (const auto& op : d->ops) (op.is_store ? writes : reads)++;
    EXPECT_GE(reads, 2u);
    EXPECT_LE(reads, 4u);
    EXPECT_GE(writes, 1u);
    EXPECT_LE(writes, 2u);
  }
}

TEST(SyntheticWorkload, AddressesAreBlockAligned) {
  SyntheticWorkload w(tiny_spec(), 1, 3);
  while (auto d = w.next(0)) {
    for (const auto& op : d->ops) EXPECT_EQ(op.addr % 64, 0u);
  }
}

TEST(SyntheticWorkload, PrivateAddressesDisjointAcrossNodes) {
  auto spec = tiny_spec();
  spec.private_frac = 1.0;  // all cold accesses go private
  spec.txns[0].hot_read_frac = 0.0;
  spec.txns[0].hot_write_frac = 0.0;
  SyntheticWorkload w(spec, 4, 1);
  std::map<NodeId, std::set<Addr>> per_node;
  for (NodeId n = 0; n < 4; ++n) {
    while (auto d = w.next(n)) {
      for (const auto& op : d->ops) per_node[n].insert(op.addr);
    }
  }
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = a + 1; b < 4; ++b) {
      for (Addr addr : per_node[a]) {
        EXPECT_FALSE(per_node[b].contains(addr))
            << "private block shared between nodes " << a << " and " << b;
      }
    }
  }
}

TEST(SyntheticWorkload, AnchorOpsTouchAnchorBlocks) {
  auto spec = tiny_spec();
  spec.txns[0].anchor_reads = 1;
  spec.txns[0].anchor_writes = 1;
  spec.anchor_blocks = 2;
  SyntheticWorkload w(spec, 1, 1);
  while (auto d = w.next(0)) {
    // First two ops are the anchor read + write, within the anchor region.
    ASSERT_GE(d->ops.size(), 2u);
    EXPECT_FALSE(d->ops[0].is_store);
    EXPECT_TRUE(d->ops[1].is_store);
    EXPECT_LT(d->ops[0].addr / 64, 2u);
    EXPECT_EQ(d->ops[0].addr, d->ops[1].addr);
  }
}

TEST(SyntheticWorkload, ScanHotSweepsWholeRegion) {
  auto spec = tiny_spec();
  spec.hot_blocks = 8;
  spec.txns[0].scan_hot = true;
  spec.txns[0].reads_min = 8;
  spec.txns[0].reads_max = 8;
  spec.txns[0].writes_min = 0;
  spec.txns[0].writes_max = 0;
  SyntheticWorkload w(spec, 1, 1);
  auto d = w.next(0);
  ASSERT_TRUE(d.has_value());
  std::set<Addr> read;
  for (const auto& op : d->ops) read.insert(op.addr);
  EXPECT_EQ(read.size(), 8u) << "scan covers every hot block exactly once";
}

TEST(SyntheticWorkload, RmwWritesReuseReadAddresses) {
  auto spec = tiny_spec();
  spec.txns[0].rmw_frac = 1.0;
  SyntheticWorkload w(spec, 1, 1);
  while (auto d = w.next(0)) {
    std::set<Addr> reads;
    for (const auto& op : d->ops) {
      if (!op.is_store) reads.insert(op.addr);
    }
    for (const auto& op : d->ops) {
      if (op.is_store) {
        EXPECT_TRUE(reads.contains(op.addr));
      }
    }
  }
}

TEST(SyntheticWorkload, PcStablePerSiteAndPosition) {
  SyntheticWorkload w1(tiny_spec(), 1, 1);
  SyntheticWorkload w2(tiny_spec(), 1, 99);  // different seed
  auto a = w1.next(0);
  auto b = w2.next(0);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->ops[0].pc, b->ops[0].pc)
      << "the PC identifies the static instruction, not the dynamic one";
}

TEST(SyntheticWorkload, SiteWeightsRoughlyRespected) {
  SyntheticSpec s = tiny_spec();
  s.txns_per_node = 2000;
  StaticTxnSpec rare = s.txns[0];
  rare.weight = 0.1;  // ~9% of instances
  s.txns.push_back(rare);
  SyntheticWorkload w(s, 1, 5);
  int site1 = 0, total = 0;
  while (auto d = w.next(0)) {
    ++total;
    if (d->static_id == 1) ++site1;
  }
  const double frac = static_cast<double>(site1) / total;
  EXPECT_NEAR(frac, 0.1 / 1.1, 0.03);
}

}  // namespace
}  // namespace puno::workloads

// L1 edge cases over the real protocol stack: stale-sharer acks, writeback
// races, deferred requests behind writebacks, the load-hit revalidation
// window, and RMW-hint loads.
#include <gtest/gtest.h>

#include "../support/fixture.hpp"

namespace puno::testing {
namespace {

constexpr Addr block_homed_at(NodeId home, int k = 0) {
  return (static_cast<Addr>(home) + 16ull * k) * 64;
}

class L1EdgeTest : public ProtocolFixture {};

TEST_F(L1EdgeTest, SilentSEvictionLeavesStaleSharerThatAcks) {
  // Fill a set with S lines so one is silently evicted, then have another
  // node write the evicted line: the stale sharer must ack gracefully.
  const Addr set_stride = 128ull * 64;
  // First make node 0 a sharer (not owner) of the target line.
  const Addr target = 0;
  ASSERT_TRUE(do_load(1, target));
  ASSERT_TRUE(do_load(0, target));  // dir: S {1, 0}
  // Evict node 0's S copy silently by filling the set.
  for (int i = 1; i <= 4; ++i) ASSERT_TRUE(do_load(0, i * set_stride));
  ASSERT_EQ(l1s_[0]->line_state(target), std::nullopt);
  // Node 2 writes: the directory still lists node 0, which must plain-ack.
  EXPECT_TRUE(do_store(2, target));
  EXPECT_EQ(l1s_[2]->line_state(target), L1State::kM);
  EXPECT_EQ(stat("htm.aborts"), 0u);
}

TEST_F(L1EdgeTest, CleanExclusiveEvictionNotifiesDirectory) {
  // An E (clean) line is evicted with a data-less PutX; the directory must
  // return to I so a later request is serviced from L2, not forwarded.
  const Addr set_stride = 128ull * 64;
  ASSERT_TRUE(do_load(0, 0));  // E grant
  ASSERT_EQ(l1s_[0]->line_state(0), L1State::kE);
  for (int i = 1; i <= 4; ++i) ASSERT_TRUE(do_load(0, i * set_stride));
  run(2000);  // let the PutX complete
  const auto* e = dirs_[0]->peek(0);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, coherence::Directory::DirState::kI);
  // A new reader is served without forwarding to node 0.
  EXPECT_TRUE(do_load(3, 0));
  EXPECT_EQ(l1s_[3]->line_state(0), L1State::kE);
}

TEST_F(L1EdgeTest, RequestToBlockWithPendingWritebackIsDeferred) {
  const Addr set_stride = 128ull * 64;
  // Dirty the victim-to-be, then evict it and immediately re-access it.
  ASSERT_TRUE(do_store(0, 0));
  for (int i = 1; i <= 4; ++i) ASSERT_TRUE(do_store(0, i * set_stride));
  // Block 0's PutX may still be in flight; the re-load must be deferred
  // until the WbAck and then complete correctly.
  EXPECT_TRUE(do_load(0, 0, false, false, 200000));
  EXPECT_NE(l1s_[0]->line_state(0), std::nullopt);
  run(2000);
  EXPECT_EQ(dirs_[0]->peek(0)->owner, 0);
}

TEST_F(L1EdgeTest, RmwHintLoadAcquiresExclusive) {
  const Addr a = block_homed_at(2);
  ASSERT_TRUE(do_load(1, a));  // someone else shares the line first
  ASSERT_TRUE(do_load(3, a));
  ASSERT_TRUE(do_load(0, a, /*transactional=*/false,
                      /*exclusive_hint=*/true));
  EXPECT_EQ(l1s_[0]->line_state(a), L1State::kE)
      << "an RMW-hinted load installs exclusive";
  EXPECT_EQ(l1s_[1]->line_state(a), std::nullopt) << "sharers invalidated";
  EXPECT_EQ(l1s_[3]->line_state(a), std::nullopt);
  // The subsequent store is then a silent upgrade.
  const auto misses = stat("l1.misses");
  EXPECT_TRUE(do_store(0, a));
  EXPECT_EQ(stat("l1.misses"), misses);
  EXPECT_EQ(l1s_[0]->line_state(a), L1State::kM);
}

TEST_F(L1EdgeTest, UpgradeGrantCarriesNoPayload) {
  // A sole-sharer upgrade is a pure permission grant: compare traffic with
  // a payload-carrying cold store.
  const Addr a = block_homed_at(2);
  ASSERT_TRUE(do_load(0, a));   // E
  ASSERT_TRUE(do_load(1, a));   // downgrade to S {0, 1}
  // Invalidate node 1 via node 0's upgrade; count flits.
  const auto before = mesh_->router_traversals();
  ASSERT_TRUE(do_store(0, a));
  const auto upgrade_flits = mesh_->router_traversals() - before;

  const Addr b = block_homed_at(2, 1);
  ASSERT_TRUE(do_load(1, b));
  ASSERT_TRUE(do_load(0, b));
  const auto before2 = mesh_->router_traversals();
  ASSERT_TRUE(do_store(3, b));  // node 3 has no copy: needs the data
  const auto cold_flits = mesh_->router_traversals() - before2;
  EXPECT_LT(upgrade_flits, cold_flits)
      << "upgrades skip the 4 body flits of the line";
}

TEST_F(L1EdgeTest, BackToBackOwnershipMigration) {
  // The line bounces across four writers; every hop must transfer M and
  // leave exactly one owner.
  const Addr a = block_homed_at(6);
  for (NodeId n = 0; n < 4; ++n) {
    ASSERT_TRUE(do_store(n, a));
    EXPECT_EQ(l1s_[n]->line_state(a), L1State::kM);
    for (NodeId m = 0; m < 4; ++m) {
      if (m != n) {
        EXPECT_EQ(l1s_[m]->line_state(a), std::nullopt);
      }
    }
    EXPECT_EQ(dirs_[6]->peek(a)->owner, n);
  }
}

TEST_F(L1EdgeTest, ReadersAfterWriterGetLatestOwnership) {
  const Addr a = block_homed_at(4);
  ASSERT_TRUE(do_store(2, a));
  for (NodeId n : {NodeId{5}, NodeId{9}, NodeId{12}}) {
    ASSERT_TRUE(do_load(n, a));
    EXPECT_EQ(l1s_[n]->line_state(a), L1State::kS);
  }
  const auto* e = dirs_[4]->peek(a);
  EXPECT_EQ(e->state, coherence::Directory::DirState::kS);
  EXPECT_EQ(e->sharers.count(), 4u) << "writer + 3 readers";
}

TEST_F(L1EdgeTest, WorkingSetLargerThanL1RunsCorrectly) {
  // Stream through 3x the L1 capacity; every access must complete and the
  // system must stay consistent (exercises eviction/writeback continuously)
  const std::uint32_t blocks = 3 * 32 * 1024 / 64;
  for (std::uint32_t i = 0; i < blocks; ++i) {
    const Addr a = static_cast<Addr>(i) * 64;
    if (i % 3 == 0) {
      ASSERT_TRUE(do_store(0, a, false, 300000)) << "block " << i;
    } else {
      ASSERT_TRUE(do_load(0, a, false, false, 300000)) << "block " << i;
    }
  }
  EXPECT_GT(stat("l1.evictions"), 0u);
  run(3000);
  EXPECT_TRUE(mesh_->idle());
}

TEST_F(L1EdgeTest, SixteenWritersOneLineAllSucceed) {
  // Ownership ping-pong under full fan-in, non-transactional: all sixteen
  // stores must complete (queued at the blocking directory).
  const Addr a = block_homed_at(8);
  std::vector<std::shared_ptr<bool>> done;
  for (NodeId n = 0; n < 16; ++n) {
    done.push_back(async_store(n, a, /*transactional=*/false));
  }
  kernel_.run_until(
      [&] {
        for (const auto& d : done) {
          if (!*d) return false;
        }
        return true;
      },
      500000);
  for (const auto& d : done) EXPECT_TRUE(*d);
  run(2000);
  EXPECT_EQ(dirs_[8]->peek(a)->state, coherence::Directory::DirState::kEM);
}

}  // namespace
}  // namespace puno::testing

// PacketPool unit tests: slot ids, flits as plain values that own nothing,
// free-list recycling, and the grow-only-when-all-live contract.
#include "noc/packet_pool.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "noc/flit.hpp"

namespace puno::noc {
namespace {

TEST(PacketPoolTest, AllocateHandsOutFreshPacket) {
  PacketPool pool;
  const PacketPool::Id p = pool.allocate();
  ASSERT_NE(p, PacketPool::kNone);
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_EQ(pool[p].num_flits, 1u);  // Packet's default
  pool[p].id = 42;
  EXPECT_EQ(pool[p].id, 42u);
}

// The arena, not the flits, owns a packet: any number of flits may name
// it, and release() frees it.
TEST(PacketPoolTest, LastHandleReturnsSlotToPool) {
  PacketPool pool;
  const PacketPool::Id p = pool.allocate();
  const Flit head{.packet = p, .is_head = true};
  const Flit tail{.packet = p, .is_tail = true};
  EXPECT_EQ(head.packet, tail.packet);
  EXPECT_EQ(pool.live(), 1u);  // two flits, one packet
  pool.release(p);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(PacketPoolTest, CopyAndMoveSemantics) {
  PacketPool pool;
  const PacketPool::Id p = pool.allocate();
  pool[p].id = 7;
  const Flit a{.packet = p, .dst = 3, .vnet = VNet::kForward};
  const Flit b = a;  // copy: both name the same packet
  EXPECT_EQ(pool[b.packet].id, 7u);
  EXPECT_EQ(b.dst, 3u);
  EXPECT_EQ(b.vnet, VNet::kForward);
  EXPECT_EQ(pool.live(), 1u);  // copies hold no reference
  pool.release(p);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(PacketPoolTest, CopyAssignOverPreviousHandleReleasesIt) {
  PacketPool pool;
  const PacketPool::Id p = pool.allocate();
  const PacketPool::Id q = pool.allocate();
  EXPECT_EQ(pool.live(), 2u);
  Flit a{.packet = p};
  Flit b{.packet = q};
  b = a;  // overwriting a flit frees nothing: the arena still owns q
  EXPECT_EQ(b.packet, p);
  EXPECT_EQ(pool.live(), 2u);
  pool.release(q);
  EXPECT_EQ(pool.live(), 1u);
  pool.release(p);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(PacketPoolTest, RecyclesSlotsWithoutGrowing) {
  PacketPool pool;
  pool.release(pool.allocate());  // create the first slot
  const std::size_t cap = pool.capacity();
  EXPECT_EQ(cap, 1u);
  // Churn with one packet live at a time must reuse that slot.
  for (int i = 0; i < 1000; ++i) {
    const PacketPool::Id p = pool.allocate();
    pool[p].id = static_cast<std::uint64_t>(i);
    pool.release(p);
  }
  EXPECT_EQ(pool.capacity(), cap);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(PacketPoolTest, GrowsWhenLivePacketsExceedAChunk) {
  PacketPool pool;
  std::vector<PacketPool::Id> held;
  for (int i = 0; i < 200; ++i) held.push_back(pool.allocate());
  EXPECT_EQ(pool.live(), 200u);
  EXPECT_EQ(pool.capacity(), 200u) << "the arena grows one slot at a time";
  // Each held packet is distinct.
  for (std::size_t i = 0; i < held.size(); ++i) {
    pool[held[i]].id = i;
  }
  for (std::size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(pool[held[i]].id, i);
  }
  for (const PacketPool::Id p : held) pool.release(p);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(PacketPoolTest, ReallocatedSlotIsReinitialized) {
  PacketPool pool;
  const PacketPool::Id p = pool.allocate();
  pool[p].id = 99;
  pool[p].num_flits = 5;
  const auto payload = std::make_shared<int>(0);
  pool[p].payload = payload;
  pool.release(p);
  EXPECT_EQ(payload.use_count(), 1) << "release drops the payload";
  const PacketPool::Id q = pool.allocate();  // same slot, recycled
  EXPECT_EQ(q, p);
  EXPECT_EQ(pool[q].id, 0u);
  EXPECT_EQ(pool[q].num_flits, 1u);  // back to the Packet default
}

}  // namespace
}  // namespace puno::noc

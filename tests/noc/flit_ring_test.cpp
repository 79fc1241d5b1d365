// FlitRing unit tests: wraparound over a span of slots, the deepest ring
// the byte indices allow, and the pop_back fault-injection path.
#include "noc/flit_ring.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "noc/packet_pool.hpp"

namespace puno::noc {
namespace {

Flit make_flit(PacketPool& pool, std::uint64_t id) {
  Flit f;
  f.packet = pool.allocate();
  f.packet->id = id;
  return f;
}

TEST(FlitRingTest, StartsEmptyWithSetCapacity) {
  std::vector<Flit> slots(4);
  FlitRing ring;
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.full(slots));
}

TEST(FlitRingTest, FifoOrderAcrossWraparound) {
  PacketPool pool;
  std::vector<Flit> slots(4);
  FlitRing ring;
  // Fill, drain two, refill: head wraps past the end of the storage.
  for (std::uint64_t i = 0; i < 4; ++i) {
    ring.push_back(slots, make_flit(pool, i));
  }
  EXPECT_TRUE(ring.full(slots));
  EXPECT_EQ(ring.front(slots).packet->id, 0u);
  ring.pop_front(slots);
  ring.pop_front(slots);
  ring.push_back(slots, make_flit(pool, 4));
  ring.push_back(slots, make_flit(pool, 5));
  EXPECT_TRUE(ring.full(slots));
  for (std::uint64_t want = 2; want <= 5; ++want) {
    ASSERT_FALSE(ring.empty());
    EXPECT_EQ(ring.front(slots).packet->id, want);
    ring.pop_front(slots);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(FlitRingTest, ManyLapsKeepFifoOrder) {
  PacketPool pool;
  std::vector<Flit> slots(3);
  FlitRing ring;
  std::uint64_t next_push = 0;
  std::uint64_t next_pop = 0;
  for (int lap = 0; lap < 100; ++lap) {
    while (!ring.full(slots)) {
      ring.push_back(slots, make_flit(pool, next_push++));
    }
    while (!ring.empty()) {
      EXPECT_EQ(ring.front(slots).packet->id, next_pop++);
      ring.pop_front(slots);
    }
  }
  EXPECT_EQ(next_pop, 300u);
}

// The deepest ring byte-wide indices address, with the head offset first
// so the fill wraps.
TEST(FlitRingTest, SpillsBeyondInlineCapacity) {
  PacketPool pool;
  std::vector<Flit> slots(FlitRing::kMaxDepth);
  FlitRing ring;
  ring.push_back(slots, make_flit(pool, 0));
  ring.pop_front(slots);
  for (std::uint64_t i = 0; i < FlitRing::kMaxDepth; ++i) {
    ring.push_back(slots, make_flit(pool, i));
  }
  EXPECT_TRUE(ring.full(slots));
  EXPECT_EQ(ring.size(), FlitRing::kMaxDepth);
  for (std::uint64_t i = 0; i < FlitRing::kMaxDepth; ++i) {
    EXPECT_EQ(ring.front(slots).packet->id, i);
    ring.pop_front(slots);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(FlitRingTest, PopBackDropsYoungest) {
  PacketPool pool;
  std::vector<Flit> slots(4);
  FlitRing ring;
  for (std::uint64_t i = 0; i < 3; ++i) {
    ring.push_back(slots, make_flit(pool, i));
  }
  ring.pop_back(slots);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.front(slots).packet->id, 0u);
  ring.pop_front(slots);
  EXPECT_EQ(ring.front(slots).packet->id, 1u);
}

TEST(FlitRingTest, PopReleasesThePacketHandle) {
  PacketPool pool;
  std::vector<Flit> slots(4);
  FlitRing ring;
  ring.push_back(slots, make_flit(pool, 7));
  EXPECT_EQ(pool.live(), 1u);
  ring.pop_front(slots);
  EXPECT_EQ(pool.live(), 0u) << "pop_front must release the slot's PacketRef";
  ring.push_back(slots, make_flit(pool, 8));
  ring.pop_back(slots);
  EXPECT_EQ(pool.live(), 0u) << "pop_back must release the slot's PacketRef";
}

}  // namespace
}  // namespace puno::noc

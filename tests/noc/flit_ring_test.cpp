// FlitRing unit tests: wraparound over a span of slots, the deepest ring
// the byte indices allow, and the pop_back fault-injection path.
#include "noc/flit_ring.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "noc/packet_pool.hpp"

namespace puno::noc {
namespace {

/// A flit told apart from the others by the slot id it carries.
Flit make_flit(std::uint64_t id) {
  return Flit{.packet = static_cast<std::uint32_t>(id)};
}

TEST(FlitRingTest, StartsEmptyWithSetCapacity) {
  std::vector<Flit> slots(4);
  FlitRing ring;
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.full(slots));
}

TEST(FlitRingTest, FifoOrderAcrossWraparound) {
  std::vector<Flit> slots(4);
  FlitRing ring;
  // Fill, drain two, refill: head wraps past the end of the storage.
  for (std::uint64_t i = 0; i < 4; ++i) {
    ring.push_back(slots, make_flit(i));
  }
  EXPECT_TRUE(ring.full(slots));
  EXPECT_EQ(ring.front(slots).packet, 0u);
  ring.pop_front(slots);
  ring.pop_front(slots);
  ring.push_back(slots, make_flit(4));
  ring.push_back(slots, make_flit(5));
  EXPECT_TRUE(ring.full(slots));
  for (std::uint64_t want = 2; want <= 5; ++want) {
    ASSERT_FALSE(ring.empty());
    EXPECT_EQ(ring.front(slots).packet, want);
    ring.pop_front(slots);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(FlitRingTest, ManyLapsKeepFifoOrder) {
  std::vector<Flit> slots(3);
  FlitRing ring;
  std::uint64_t next_push = 0;
  std::uint64_t next_pop = 0;
  for (int lap = 0; lap < 100; ++lap) {
    while (!ring.full(slots)) {
      ring.push_back(slots, make_flit(next_push++));
    }
    while (!ring.empty()) {
      EXPECT_EQ(ring.front(slots).packet, next_pop++);
      ring.pop_front(slots);
    }
  }
  EXPECT_EQ(next_pop, 300u);
}

// The deepest ring byte-wide indices address, with the head offset first
// so the fill wraps.
TEST(FlitRingTest, SpillsBeyondInlineCapacity) {
  std::vector<Flit> slots(FlitRing::kMaxDepth);
  FlitRing ring;
  ring.push_back(slots, make_flit(0));
  ring.pop_front(slots);
  for (std::uint64_t i = 0; i < FlitRing::kMaxDepth; ++i) {
    ring.push_back(slots, make_flit(i));
  }
  EXPECT_TRUE(ring.full(slots));
  EXPECT_EQ(ring.size(), FlitRing::kMaxDepth);
  for (std::uint64_t i = 0; i < FlitRing::kMaxDepth; ++i) {
    EXPECT_EQ(ring.front(slots).packet, i);
    ring.pop_front(slots);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(FlitRingTest, PopBackDropsYoungest) {
  std::vector<Flit> slots(4);
  FlitRing ring;
  for (std::uint64_t i = 0; i < 3; ++i) {
    ring.push_back(slots, make_flit(i));
  }
  ring.pop_back();
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.front(slots).packet, 0u);
  ring.pop_front(slots);
  EXPECT_EQ(ring.front(slots).packet, 1u);
}

// A flit names its packet by value: a pop hands its ring slot to the next
// push and leaves the packet to the arena, which only release() frees.
TEST(FlitRingTest, PopReleasesThePacketHandle) {
  PacketPool pool;
  std::vector<Flit> slots(1);
  FlitRing ring;
  const PacketPool::Id a = pool.allocate();
  ring.push_back(slots, Flit{.packet = a});
  ring.pop_front(slots);
  EXPECT_FALSE(ring.full(slots)) << "pop_front must free the ring slot";
  EXPECT_EQ(pool.live(), 1u) << "a pop must not free the packet";
  const PacketPool::Id b = pool.allocate();
  ring.push_back(slots, Flit{.packet = b});
  EXPECT_EQ(ring.front(slots).packet, b);
  ring.pop_back();
  EXPECT_TRUE(ring.empty()) << "pop_back must free the ring slot";
  EXPECT_EQ(pool.live(), 2u) << "a pop must not free the packet";
  pool.release(a);
  pool.release(b);
  EXPECT_EQ(pool.live(), 0u);
}

}  // namespace
}  // namespace puno::noc

#include "puno/pbuffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/rng.hpp"

namespace puno::core {
namespace {

/// The full-scan rule: every timeout and every eviction walks all
/// num_nodes slots. PBuffer visits only its tracked nodes and must agree
/// with this reference on every entry after every operation.
struct FullScanPBuffer {
  struct Slot {
    PBuffer::Entry e;
    bool tracked = false;
  };

  FullScanPBuffer(std::uint32_t cap, std::uint32_t num_nodes)
      : slots(num_nodes), capacity(cap) {}

  void update(NodeId n, Timestamp ts) {
    Slot& s = slots[n];
    if (!s.tracked) {
      if (tracked == capacity) evict_one();
      s.tracked = true;
      s.e = PBuffer::Entry{};
      ++tracked;
    }
    s.e.ts = ts;
    const int inc = s.e.validity == 0 ? 2 : 1;
    s.e.validity = static_cast<std::uint8_t>(std::min(3, s.e.validity + inc));
  }

  void on_timeout() {
    for (Slot& s : slots) {
      if (s.e.validity > 0) --s.e.validity;
    }
  }

  void invalidate(NodeId n) { slots[n].e.validity = 0; }

  void evict_one() {
    // Ascending scan; a later slot wins ties, so equal validity and equal
    // timestamp leave the highest id as the victim.
    NodeId victim = kInvalidNode;
    for (NodeId n = 0; n < slots.size(); ++n) {
      const Slot& s = slots[n];
      if (!s.tracked) continue;
      if (victim == kInvalidNode || s.e.validity < slots[victim].e.validity ||
          (s.e.validity == slots[victim].e.validity &&
           s.e.ts >= slots[victim].e.ts)) {
        victim = n;
      }
    }
    slots[victim] = Slot{};
    --tracked;
    ++evictions;
  }

  std::vector<Slot> slots;
  std::uint32_t capacity;
  std::uint32_t tracked = 0;
  std::uint64_t evictions = 0;
};

TEST(PBuffer, EntriesStartInvalid) {
  PBuffer p(16);
  for (NodeId n = 0; n < 16; ++n) {
    EXPECT_EQ(p.get(n).validity, 0);
    EXPECT_EQ(p.get(n).ts, kInvalidTimestamp);
    EXPECT_FALSE(p.usable(n));
  }
}

TEST(PBuffer, UpdateFromZeroIncrementsTwice) {
  // Figure 5(b): updating a 0-validity entry bumps the counter by two, so a
  // freshly revived priority survives one timeout.
  PBuffer p(16);
  p.update(3, 100);
  EXPECT_EQ(p.get(3).validity, 2);
  EXPECT_EQ(p.get(3).ts, 100u);
  EXPECT_TRUE(p.usable(3));
}

TEST(PBuffer, RepeatedUpdatesSaturateAtThree) {
  PBuffer p(16);
  p.update(3, 100);
  p.update(3, 110);
  EXPECT_EQ(p.get(3).validity, 3);
  p.update(3, 120);
  EXPECT_EQ(p.get(3).validity, 3);
  EXPECT_EQ(p.get(3).ts, 120u) << "timestamp always refreshed";
}

TEST(PBuffer, TimeoutDecrementsAllNonZero) {
  PBuffer p(16);
  p.update(1, 100);  // validity 2
  p.update(2, 200);
  p.update(2, 210);  // validity 3
  p.on_timeout();
  EXPECT_EQ(p.get(1).validity, 1);
  EXPECT_EQ(p.get(2).validity, 2);
  EXPECT_EQ(p.get(0).validity, 0) << "zero stays zero";
}

TEST(PBuffer, StalePriorityBecomesUnusableAfterTimeouts) {
  PBuffer p(16);
  p.update(1, 100);  // validity 2: usable
  ASSERT_TRUE(p.usable(1));
  p.on_timeout();  // validity 1: not usable (threshold is > 1)
  EXPECT_FALSE(p.usable(1));
  p.on_timeout();  // validity 0
  EXPECT_EQ(p.get(1).validity, 0);
}

TEST(PBuffer, MispredictionInvalidatesImmediately) {
  PBuffer p(16);
  p.update(5, 100);
  p.update(5, 100);
  ASSERT_TRUE(p.usable(5));
  p.invalidate(5);
  EXPECT_EQ(p.get(5).validity, 0);
  EXPECT_FALSE(p.usable(5));
}

TEST(PBuffer, ReviveAfterInvalidationIsUsableAgain) {
  PBuffer p(16);
  p.update(5, 100);
  p.invalidate(5);
  p.update(5, 300);
  EXPECT_TRUE(p.usable(5));
  EXPECT_EQ(p.get(5).ts, 300u);
}

TEST(PBuffer, UsableRespectsThreshold) {
  PBuffer p(16);
  p.update(1, 100);  // validity 2
  EXPECT_TRUE(p.usable(1, 1));
  EXPECT_FALSE(p.usable(1, 2)) << "stricter threshold requires validity 3";
  p.update(1, 100);  // validity 3
  EXPECT_TRUE(p.usable(1, 2));
}

TEST(PBuffer, SizeMatchesConstruction) {
  PBuffer p(16);
  EXPECT_EQ(p.size(), 16u);
}


TEST(PBuffer, UnboundedFormNeverEvicts) {
  PBuffer p(16);
  EXPECT_EQ(p.capacity(), 16u);
  for (NodeId n = 0; n < 16; ++n) p.update(n, 100 + n);
  EXPECT_EQ(p.tracked_count(), 16u);
  EXPECT_EQ(p.evictions(), 0u);
}

TEST(PBuffer, CapacityZeroMeansOnePerNode) {
  PBuffer p(0, 64);
  EXPECT_EQ(p.capacity(), 64u);
  EXPECT_EQ(p.size(), 64u);
}

TEST(PBuffer, EvictsLowestValidityFirst) {
  PBuffer p(2, 8);
  p.update(1, 100);  // validity 2
  p.update(2, 200);  // validity 2
  p.update(2, 200);  // validity 3
  p.on_timeout();    // 1 -> 1, 2 -> 2
  p.update(5, 50);   // full: evict node 1 (lowest validity)
  EXPECT_EQ(p.evictions(), 1u);
  EXPECT_FALSE(p.tracked(1));
  EXPECT_TRUE(p.tracked(2));
  EXPECT_TRUE(p.tracked(5));
  // The evicted node reads as an empty entry.
  EXPECT_EQ(p.get(1).ts, kInvalidTimestamp);
  EXPECT_EQ(p.get(1).validity, 0u);
}

TEST(PBuffer, EvictionTieBreaksOnYoungestTimestampThenHighestId) {
  // Equal validity: the youngest (largest) timestamp goes first -- it holds
  // the lowest priority and is least likely to win a conflict anyway.
  PBuffer p(2, 8);
  p.update(3, 100);
  p.update(6, 900);
  p.update(0, 500);  // evicts node 6 (ts 900 youngest)
  EXPECT_FALSE(p.tracked(6));
  EXPECT_TRUE(p.tracked(3));
  EXPECT_TRUE(p.tracked(0));

  // Equal validity AND equal timestamp: highest node id goes first.
  PBuffer q(2, 8);
  q.update(2, 400);
  q.update(7, 400);
  q.update(1, 100);  // evicts node 7
  EXPECT_FALSE(q.tracked(7));
  EXPECT_TRUE(q.tracked(2));
  EXPECT_EQ(q.evictions(), 1u);
}

TEST(PBuffer, UpdateOfTrackedNodeNeverEvicts) {
  PBuffer p(2, 8);
  p.update(1, 100);
  p.update(2, 200);
  p.update(1, 150);  // refresh, not an insertion
  EXPECT_EQ(p.evictions(), 0u);
  EXPECT_EQ(p.tracked_count(), 2u);
  EXPECT_EQ(p.get(1).ts, 150u);
}

TEST(PBuffer, InvalidatedEntryStaysTrackedAndEvictsFirst) {
  PBuffer p(2, 8);
  p.update(1, 100);
  p.update(2, 200);
  p.invalidate(2);           // validity 0, still occupies a slot
  EXPECT_TRUE(p.tracked(2));
  p.update(3, 50);           // node 2 is the clear victim
  EXPECT_FALSE(p.tracked(2));
  EXPECT_TRUE(p.tracked(1));
  EXPECT_TRUE(p.tracked(3));
}

TEST(PBuffer, TrackedListMatchesFullScanReference) {
  // Capacity below the node count, so updates of untracked nodes evict;
  // timestamps come from a small range, so validity and timestamp ties
  // reach the highest-id rule; evicted nodes are re-tracked later.
  struct Shape {
    std::uint32_t capacity;
    std::uint32_t num_nodes;
  };
  for (const Shape shape : {Shape{1, 4}, Shape{2, 8}, Shape{4, 16},
                            Shape{16, 64}, Shape{16, 256}}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      PBuffer p(shape.capacity, shape.num_nodes);
      FullScanPBuffer ref(shape.capacity, shape.num_nodes);
      sim::Rng rng(seed, shape.num_nodes);
      // Nodes are drawn from a window a little wider than the capacity, so
      // the same nodes come back after their eviction.
      const std::uint32_t window =
          std::min(shape.num_nodes, shape.capacity * 2 + 1);
      for (int op = 0; op < 4000; ++op) {
        const auto n = static_cast<NodeId>(
            rng.next_below(rng.next_bool(0.9) ? window : shape.num_nodes));
        const std::uint64_t kind = rng.next_below(10);
        if (kind < 6) {
          const Timestamp ts = rng.next_below(4) * 100;
          p.update(n, ts);
          ref.update(n, ts);
        } else if (kind < 9) {
          p.on_timeout();
          ref.on_timeout();
        } else {
          p.invalidate(n);
          ref.invalidate(n);
        }
        ASSERT_EQ(p.tracked_count(), ref.tracked);
        ASSERT_EQ(p.evictions(), ref.evictions);
        for (NodeId m = 0; m < shape.num_nodes; ++m) {
          ASSERT_EQ(p.tracked(m), ref.slots[m].tracked)
              << "node " << m << " after op " << op << ", seed " << seed;
          ASSERT_EQ(p.get(m).validity, ref.slots[m].e.validity);
          ASSERT_EQ(p.get(m).ts, ref.slots[m].e.ts);
        }
      }
      EXPECT_GT(ref.evictions, 0u) << "capacity " << shape.capacity;
    }
  }
}

}  // namespace
}  // namespace puno::core

// Directory FSM unit tests: drive handle_message() directly and capture the
// outgoing messages, with no network and no L1s, so every (state, message)
// transition is observable in isolation.
#include "coherence/directory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

namespace puno::coherence {
namespace {

struct SentMsg {
  NodeId dst;
  Message msg;
};

class DirectoryUnitTest : public ::testing::Test {
 protected:
  DirectoryUnitTest() { make_directory(); }

  /// (Re)builds the directory under test from cfg_.
  void make_directory() {
    dir_ = std::make_unique<Directory>(
        kernel_, cfg_, kHome,
        [this](NodeId dst, std::shared_ptr<const Message> m) {
          sent_.push_back({dst, *m});
        });
  }

  /// Runs the kernel until pending events (delayed data sends) fire.
  void settle(Cycle cycles = 400) { kernel_.run_for(cycles); }

  /// Pops the oldest captured message, asserting its type.
  SentMsg expect_sent(MsgType type) {
    if (sent_.empty()) {
      ADD_FAILURE() << "expected " << to_string(type) << ", nothing sent";
      return {};
    }
    SentMsg m = sent_.front();
    sent_.pop_front();
    EXPECT_EQ(m.msg.type, type);
    return m;
  }

  Message make(MsgType t, BlockAddr addr, NodeId sender,
               bool transactional = false, Timestamp ts = kInvalidTimestamp) {
    Message m;
    m.type = t;
    m.addr = addr;
    m.sender = sender;
    m.requester = sender;
    m.transactional = transactional;
    m.ts = ts;
    return m;
  }

  void unblock(BlockAddr addr, NodeId requester, bool success,
               std::uint64_t surviving = 0) {
    Message u = make(MsgType::kUnblock, addr, requester);
    u.success = success;
    for (NodeId n = 0; n < 64; ++n) {
      if ((surviving >> n) & 1) u.surviving_sharers.add(n);
    }
    dir_->handle_message(u);
  }

  /// Brings `addr` to S state with the given sharers.
  void make_shared_line(BlockAddr addr, std::initializer_list<NodeId> nodes) {
    bool first = true;
    for (NodeId n : nodes) {
      dir_->handle_message(make(MsgType::kGetS, addr, n));
      settle();
      if (first) {
        // First reader gets E; it must "downgrade" via a second reader's
        // FwdGetS in the real system — here we emulate the responses.
        expect_sent(MsgType::kData);
        unblock(addr, n, true);
        first = false;
        continue;
      }
      // Owned at previous reader: dir forwards. Emulate the owner granting.
      const SentMsg fwd = sent_.front();
      if (fwd.msg.type == MsgType::kFwdGetS) {
        sent_.pop_front();
        unblock(addr, n, true);
      } else {
        expect_sent(MsgType::kData);
        unblock(addr, n, true);
      }
    }
    sent_.clear();
  }

  static constexpr NodeId kHome = 2;
  sim::Kernel kernel_;
  SystemConfig cfg_;
  std::unique_ptr<Directory> dir_;
  std::deque<SentMsg> sent_;
};

TEST_F(DirectoryUnitTest, GetSOnIdleGrantsExclusiveData) {
  dir_->handle_message(make(MsgType::kGetS, 0x1000, 4));
  settle();
  const SentMsg m = expect_sent(MsgType::kData);
  EXPECT_EQ(m.dst, 4);
  EXPECT_TRUE(m.msg.exclusive);
  EXPECT_TRUE(m.msg.sole);
  EXPECT_TRUE(m.msg.has_payload);
  unblock(0x1000, 4, true);
  const auto* e = dir_->peek(0x1000);
  EXPECT_EQ(e->state, Directory::DirState::kEM);
  EXPECT_EQ(e->owner, 4);
}

TEST_F(DirectoryUnitTest, ColdMissPaysMemoryLatencyThenL2Hits) {
  dir_->handle_message(make(MsgType::kGetS, 0x1000, 4));
  settle(cfg_.cache.l2_latency + 2);
  EXPECT_TRUE(sent_.empty()) << "memory latency (200) not yet elapsed";
  settle(cfg_.cache.memory_latency);
  expect_sent(MsgType::kData);
  unblock(0x1000, 4, true);

  // Writeback brings the line home; the next idle-state fetch is an L2 hit.
  Message putx = make(MsgType::kPutX, 0x1000, 4);
  dir_->handle_message(putx);
  expect_sent(MsgType::kWbAck);
  dir_->handle_message(make(MsgType::kGetS, 0x1000, 5));
  settle(cfg_.cache.l2_latency + 2);
  expect_sent(MsgType::kData);
  unblock(0x1000, 5, true);
}

TEST_F(DirectoryUnitTest, GetSOnOwnedForwardsToOwner) {
  dir_->handle_message(make(MsgType::kGetS, 0x40, 1));
  settle();
  expect_sent(MsgType::kData);
  unblock(0x40, 1, true);

  dir_->handle_message(make(MsgType::kGetS, 0x40, 7));
  const SentMsg fwd = expect_sent(MsgType::kFwdGetS);
  EXPECT_EQ(fwd.dst, 1);
  EXPECT_EQ(fwd.msg.requester, 7);
  EXPECT_TRUE(fwd.msg.sole);
  unblock(0x40, 7, true);
  const auto* e = dir_->peek(0x40);
  EXPECT_EQ(e->state, Directory::DirState::kS);
  EXPECT_EQ(e->sharers.mask64(), node_bit(1) | node_bit(7));
}

TEST_F(DirectoryUnitTest, FailedGetSOnOwnedKeepsOwner) {
  dir_->handle_message(make(MsgType::kGetS, 0x40, 1));
  settle();
  expect_sent(MsgType::kData);
  unblock(0x40, 1, true);
  dir_->handle_message(make(MsgType::kGetS, 0x40, 7));
  expect_sent(MsgType::kFwdGetS);
  unblock(0x40, 7, /*success=*/false);  // owner nacked
  const auto* e = dir_->peek(0x40);
  EXPECT_EQ(e->state, Directory::DirState::kEM);
  EXPECT_EQ(e->owner, 1);
}

TEST_F(DirectoryUnitTest, GetXOnSharedMulticastsAndSendsAckCount) {
  make_shared_line(0x80, {1, 3, 5});
  dir_->handle_message(make(MsgType::kGetX, 0x80, 9));
  settle();
  int invs = 0;
  std::uint64_t inv_dsts = 0;
  bool data_seen = false;
  std::uint32_t expected = 0;
  while (!sent_.empty()) {
    const SentMsg m = sent_.front();
    sent_.pop_front();
    if (m.msg.type == MsgType::kInv) {
      ++invs;
      inv_dsts |= node_bit(m.dst);
      EXPECT_FALSE(m.msg.u_bit);
    } else if (m.msg.type == MsgType::kData) {
      data_seen = true;
      expected = m.msg.expected_responses;
      EXPECT_EQ(m.dst, 9);
    }
  }
  EXPECT_EQ(invs, 3);
  EXPECT_EQ(inv_dsts, node_bit(1) | node_bit(3) | node_bit(5));
  EXPECT_TRUE(data_seen);
  EXPECT_EQ(expected, 3u);
  unblock(0x80, 9, true);
  EXPECT_EQ(dir_->peek(0x80)->state, Directory::DirState::kEM);
  EXPECT_EQ(dir_->peek(0x80)->owner, 9);
}

TEST_F(DirectoryUnitTest, FailedGetXRestoresSurvivingSharers) {
  make_shared_line(0x80, {1, 3, 5});
  dir_->handle_message(make(MsgType::kGetX, 0x80, 9));
  settle();
  sent_.clear();
  // Suppose only node 3 nacked; 1 and 5 were (falsely) invalidated.
  unblock(0x80, 9, /*success=*/false, node_bit(3));
  const auto* e = dir_->peek(0x80);
  EXPECT_EQ(e->state, Directory::DirState::kS);
  EXPECT_EQ(e->sharers.mask64(), node_bit(3));
}

// A coarse list records a sharer's whole region, and a failed GETX rebuilds
// it from the survivors in the same encoding.
TEST_F(DirectoryUnitTest, FailedGetXRebuildsACoarseListByRegion) {
  cfg_.dir.sharer_rep = SharerRep::kCoarse;
  cfg_.dir.coarse_region = 4;
  make_directory();
  make_shared_line(0x80, {1, 9});
  ASSERT_EQ(dir_->peek(0x80)->sharers.to_vector(),
            (std::vector<NodeId>{0, 1, 2, 3, 8, 9, 10, 11}));
  dir_->handle_message(make(MsgType::kGetX, 0x80, 5));
  settle();
  sent_.clear();
  // Only node 9 nacked: its region stays listed, region 0..3 goes.
  unblock(0x80, 5, /*success=*/false, node_bit(9));
  EXPECT_EQ(dir_->peek(0x80)->sharers.to_vector(),
            (std::vector<NodeId>{8, 9, 10, 11}));
}

TEST_F(DirectoryUnitTest, UpgradeByExistingSharerKeepsOwnCopyOnFailure) {
  make_shared_line(0x80, {1, 3});
  dir_->handle_message(make(MsgType::kGetX, 0x80, 1));  // 1 upgrades
  settle();
  sent_.clear();
  unblock(0x80, 1, /*success=*/false, node_bit(3));
  EXPECT_EQ(dir_->peek(0x80)->sharers.mask64(), node_bit(3) | node_bit(1))
      << "the upgrading requester was never invalidated";
}

TEST_F(DirectoryUnitTest, UpgradeGrantHasNoPayload) {
  // Reach S with a single sharer: a failed GETX whose only survivor is
  // node 1 (a lone *reader* would be EM, not S).
  make_shared_line(0x80, {1, 3});
  dir_->handle_message(make(MsgType::kGetX, 0x80, 9));
  settle();
  sent_.clear();
  unblock(0x80, 9, /*success=*/false, node_bit(1));
  ASSERT_EQ(dir_->peek(0x80)->sharers.mask64(), node_bit(1));

  dir_->handle_message(make(MsgType::kGetX, 0x80, 1));
  settle();
  const SentMsg m = expect_sent(MsgType::kData);
  EXPECT_FALSE(m.msg.has_payload) << "sole-sharer upgrade is control-only";
  EXPECT_TRUE(m.msg.sole);
  unblock(0x80, 1, true);
  EXPECT_EQ(dir_->peek(0x80)->owner, 1);
}

TEST_F(DirectoryUnitTest, BusyEntryQueuesSecondRequest) {
  dir_->handle_message(make(MsgType::kGetS, 0xC0, 1));
  dir_->handle_message(make(MsgType::kGetS, 0xC0, 2));  // queued
  settle();
  EXPECT_EQ(sent_.size(), 1u) << "only the first service may act";
  expect_sent(MsgType::kData);
  unblock(0xC0, 1, true);
  settle();
  // Second service proceeds after the unblock: EM(1) -> forward to 1.
  const SentMsg fwd = expect_sent(MsgType::kFwdGetS);
  EXPECT_EQ(fwd.dst, 1);
  unblock(0xC0, 2, true);
}

TEST_F(DirectoryUnitTest, RequestsToDistinctLinesServiceConcurrently) {
  dir_->handle_message(make(MsgType::kGetS, 0x100, 1));
  dir_->handle_message(make(MsgType::kGetS, 0x200, 2));
  settle();
  EXPECT_EQ(sent_.size(), 2u) << "different lines never block each other";
}

TEST_F(DirectoryUnitTest, StalePutXGetsWbStale) {
  dir_->handle_message(make(MsgType::kGetS, 0x40, 1));
  settle();
  expect_sent(MsgType::kData);
  unblock(0x40, 1, true);
  // Ownership moved to node 6 via a GetX before node 1's PutX arrives.
  dir_->handle_message(make(MsgType::kGetX, 0x40, 6));
  expect_sent(MsgType::kInv);
  unblock(0x40, 6, true);
  dir_->handle_message(make(MsgType::kPutX, 0x40, 1));
  const SentMsg m = expect_sent(MsgType::kWbStale);
  EXPECT_EQ(m.dst, 1);
  EXPECT_EQ(dir_->peek(0x40)->owner, 6) << "stale writeback changes nothing";
}

TEST_F(DirectoryUnitTest, PutXQueuedBehindBusyService) {
  dir_->handle_message(make(MsgType::kGetS, 0x40, 1));
  settle();
  expect_sent(MsgType::kData);
  unblock(0x40, 1, true);
  // Busy the entry with a second reader, then let the owner's PutX arrive.
  dir_->handle_message(make(MsgType::kGetS, 0x40, 7));
  expect_sent(MsgType::kFwdGetS);
  dir_->handle_message(make(MsgType::kPutX, 0x40, 1));
  EXPECT_TRUE(sent_.empty()) << "PutX must wait for the active service";
  unblock(0x40, 7, true);
  settle();
  const SentMsg m = expect_sent(MsgType::kWbStale);
  EXPECT_EQ(m.dst, 1) << "after the fwd, node 1 is no longer sole owner";
}

TEST_F(DirectoryUnitTest, RequestQueuedBehindPutXIsStillServiced) {
  // Regression test: a PutX dequeued from the pending list must not strand
  // the requests queued behind it (it never blocks the entry itself).
  dir_->handle_message(make(MsgType::kGetS, 0x40, 1));
  settle();
  expect_sent(MsgType::kData);
  unblock(0x40, 1, true);
  // Busy the entry, then queue a PutX AND a GetS behind the busy service.
  dir_->handle_message(make(MsgType::kGetS, 0x40, 7));
  expect_sent(MsgType::kFwdGetS);
  dir_->handle_message(make(MsgType::kPutX, 0x40, 1));
  dir_->handle_message(make(MsgType::kGetS, 0x40, 9));
  EXPECT_TRUE(sent_.empty());
  unblock(0x40, 7, true);
  settle();
  // Order: stale PutX answered, then node 9's read serviced from home.
  expect_sent(MsgType::kWbStale);
  const SentMsg data = expect_sent(MsgType::kData);
  EXPECT_EQ(data.dst, 9);
  unblock(0x40, 9, true);
}

TEST_F(DirectoryUnitTest, TransactionalGetxBlockedCyclesAreSampled) {
  make_shared_line(0x80, {1, 3});
  Message getx = make(MsgType::kGetX, 0x80, 9, /*transactional=*/true, 77);
  dir_->handle_message(getx);
  settle(50);
  unblock(0x80, 9, true);
  const auto& scalar = kernel_.stats().scalar("dir.txgetx_blocked_cycles");
  EXPECT_EQ(scalar.count(), 1u);
  EXPECT_GT(scalar.mean(), 0.0);
}

TEST_F(DirectoryUnitTest, WbDataRefillsL2) {
  // An owner downgrade's WbData must land in the L2 so the next idle fetch
  // is a 20-cycle hit instead of 200-cycle memory.
  dir_->handle_message(make(MsgType::kGetS, 0x140, 1));
  settle();
  expect_sent(MsgType::kData);
  unblock(0x140, 1, true);
  dir_->handle_message(make(MsgType::kWbData, 0x140, 1));
  // Drop ownership so the next read is serviced from home.
  dir_->handle_message(make(MsgType::kPutX, 0x140, 1));
  expect_sent(MsgType::kWbAck);
  dir_->handle_message(make(MsgType::kGetS, 0x140, 2));
  settle(cfg_.cache.l2_latency + 2);
  expect_sent(MsgType::kData);  // arrived within L2 latency: it was a hit
}

TEST_F(DirectoryUnitTest, EntriesAreVisitedInFirstRequestOrder) {
  // 100 lines (the table grows past its first size) requested in a
  // scrambled order; a second round of requests adds no entry and does not
  // reorder them.
  std::vector<BlockAddr> order;
  for (std::uint64_t i = 0; i < 100; ++i) order.push_back((i * 37 % 100) * 64);
  for (int round = 0; round < 2; ++round) {
    const auto node = static_cast<NodeId>(1 + round);
    for (const BlockAddr a : order) {
      dir_->handle_message(make(MsgType::kGetX, a, node));
      unblock(a, node, true);
    }
  }
  std::vector<BlockAddr> visited;
  dir_->for_each_entry(
      [&](BlockAddr a, const Directory::Entry&) { visited.push_back(a); });
  EXPECT_EQ(visited, order);
  EXPECT_EQ(dir_->entry_count(), order.size());
}

TEST_F(DirectoryUnitTest, QueuedRequestsAreServedFifoAcrossServiceTurns) {
  const BlockAddr line = 0x40;
  // The requester every message of the line's last service names: Data
  // goes to it, and forwards and invalidations carry it.
  const auto served = [&] {
    settle();
    NodeId req = kInvalidNode;
    for (const SentMsg& m : sent_) {
      if (m.msg.addr != line) continue;
      if (req == kInvalidNode) req = m.msg.requester;
      EXPECT_EQ(m.msg.requester, req);
    }
    sent_.clear();
    return req;
  };
  // Another line stays busy throughout, so the two lines' service records
  // are taken and returned in interleaved turns.
  dir_->handle_message(make(MsgType::kGetS, 0x80, 11));
  dir_->handle_message(make(MsgType::kGetS, 0x80, 12));  // queued

  // Turn 1: 1 busies the line; 2, 3 and 4 queue.
  dir_->handle_message(make(MsgType::kGetS, line, 1));
  dir_->handle_message(make(MsgType::kGetX, line, 2));
  dir_->handle_message(make(MsgType::kGetS, line, 3));
  dir_->handle_message(make(MsgType::kGetX, line, 4));
  EXPECT_EQ(served(), 1);
  unblock(line, 1, true);  // schedules 2's service one cycle on
  // In the same cycle 5's request finds the line idle and is served first;
  // 2's service then finds the line busy and goes back to the front.
  dir_->handle_message(make(MsgType::kGetS, line, 5));
  EXPECT_EQ(served(), 5);
  unblock(line, 5, true);
  EXPECT_EQ(served(), 2);
  unblock(line, 2, true);
  unblock(0x80, 11, true);  // the other line's queue moves on meanwhile
  EXPECT_EQ(served(), 3);
  unblock(line, 3, true);
  unblock(0x80, 12, true);
  EXPECT_EQ(served(), 4);
  unblock(line, 4, true);
  settle();
  EXPECT_TRUE(sent_.empty());
  EXPECT_EQ(dir_->pending_services(), 0u);
  EXPECT_EQ(dir_->peek(line)->owner, 4);

  // Turn 2: the queue empties when 7 is dequeued, 8 busies the line in
  // that cycle and 9 queues behind it; 7 still goes first after 8.
  dir_->handle_message(make(MsgType::kGetX, line, 6));
  dir_->handle_message(make(MsgType::kGetS, line, 7));
  EXPECT_EQ(served(), 6);
  unblock(line, 6, true);
  dir_->handle_message(make(MsgType::kGetS, line, 8));
  dir_->handle_message(make(MsgType::kGetS, line, 9));
  EXPECT_EQ(served(), 8);
  unblock(line, 8, true);
  EXPECT_EQ(served(), 7);
  unblock(line, 7, true);
  EXPECT_EQ(served(), 9);
  unblock(line, 9, true);
  settle();
  EXPECT_TRUE(sent_.empty());
  EXPECT_EQ(dir_->pending_services(), 0u);
  const auto* e = dir_->peek(line);
  EXPECT_EQ(e->state, Directory::DirState::kS);
  EXPECT_EQ(e->sharers.mask64(),
            node_bit(6) | node_bit(7) | node_bit(8) | node_bit(9));
}

/// An assist that predicts one fixed sharer for every transactional GETX.
class FixedUnicastAssist final : public DirectoryAssist {
 public:
  explicit FixedUnicastAssist(NodeId target) : target_(target) {}
  void observe_request(NodeId, Timestamp, Cycle) override {}
  [[nodiscard]] NodeId predict_unicast(const SharerSet&, NodeId, Timestamp,
                                       NodeId) override {
    return target_;
  }
  [[nodiscard]] NodeId recompute_ud(const SharerSet&) override {
    return kInvalidNode;
  }
  void on_misprediction(NodeId) override {}
  [[nodiscard]] Cycle prediction_latency() const override { return 2; }

 private:
  NodeId target_;
};

TEST_F(DirectoryUnitTest, EveryForwardCarriesTheRequestsConflictFields) {
  static constexpr Timestamp kTs = 77;
  // The forward rule: whoever the home forwards to sees the request's
  // block, requester, transactional bit and timestamp, from the home.
  const auto expect_forward = [](const SentMsg& f, NodeId dst,
                                 BlockAddr addr, NodeId requester) {
    EXPECT_EQ(f.dst, dst);
    EXPECT_EQ(f.msg.addr, addr);
    EXPECT_EQ(f.msg.requester, requester);
    EXPECT_TRUE(f.msg.transactional);
    EXPECT_EQ(f.msg.ts, kTs);
    EXPECT_EQ(f.msg.sender, kHome);
  };

  // FwdGetS to the owner of an EM line.
  dir_->handle_message(make(MsgType::kGetX, 0x40, 1));
  settle();
  expect_sent(MsgType::kData);
  unblock(0x40, 1, true);
  dir_->handle_message(make(MsgType::kGetS, 0x40, 3, true, kTs));
  expect_forward(expect_sent(MsgType::kFwdGetS), 1, 0x40, 3);
  unblock(0x40, 3, false);

  // Inv to the owner.
  dir_->handle_message(make(MsgType::kGetX, 0x40, 4, true, kTs));
  const SentMsg owner_inv = expect_sent(MsgType::kInv);
  expect_forward(owner_inv, 1, 0x40, 4);
  EXPECT_TRUE(owner_inv.msg.sole);
  unblock(0x40, 4, false);

  // A multicast Inv to each sharer.
  make_shared_line(0x80, {5, 6, 7});
  dir_->handle_message(make(MsgType::kGetX, 0x80, 8, true, kTs));
  settle();
  for (const NodeId sharer : {5, 6, 7}) {
    const SentMsg inv = expect_sent(MsgType::kInv);
    expect_forward(inv, sharer, 0x80, 8);
    EXPECT_FALSE(inv.msg.u_bit);
  }
  expect_sent(MsgType::kData);
  unblock(0x80, 8, false, node_bit(5) | node_bit(6) | node_bit(7));

  // A unicast Inv to the sharer the assist predicts.
  FixedUnicastAssist assist(6);
  dir_->set_assist(&assist);
  dir_->handle_message(make(MsgType::kGetX, 0x80, 9, true, kTs));
  settle();
  const SentMsg unicast = expect_sent(MsgType::kInv);
  expect_forward(unicast, 6, 0x80, 9);
  EXPECT_TRUE(unicast.msg.u_bit);
  EXPECT_TRUE(sent_.empty()) << "a unicast sends no data";
  unblock(0x80, 9, false, node_bit(6));
  dir_->set_assist(nullptr);
}

TEST(DirectoryTable, OneHomeOfA256NodeMachineServesFortyThousandBlocks) {
  // 40,960 interleaved blocks of one home: the table doubles 13 times from
  // its first size. Every line is busy at once before the first UNBLOCK,
  // so the service pool grows as large as the table.
  sim::Kernel kernel;
  SystemConfig cfg;
  cfg.num_nodes = 256;
  cfg.noc.mesh_width = 16;
  constexpr NodeId kHome = 5;
  std::uint64_t sent = 0;
  Directory dir(kernel, cfg, kHome,
                [&](NodeId, std::shared_ptr<const Message>) { ++sent; });
  constexpr std::uint64_t kBlocks = 40960;
  const auto block = [&](std::uint64_t k) {
    return (k * cfg.num_nodes + kHome) * CacheConfig::block_bytes;
  };
  const auto first = [](std::uint64_t k) {
    return static_cast<NodeId>(k % 256);
  };
  const auto second = [](std::uint64_t k) {
    return static_cast<NodeId>((k + 7) % 256);
  };
  const auto send = [&](MsgType t, std::uint64_t k, NodeId from,
                        bool success = true) {
    Message m;
    m.type = t;
    m.addr = block(k);
    m.sender = from;
    m.requester = from;
    m.success = success;
    dir.handle_message(m);
  };

  for (std::uint64_t k = 0; k < kBlocks; ++k) send(MsgType::kGetS, k, first(k));
  EXPECT_EQ(dir.entry_count(), kBlocks);
  EXPECT_EQ(dir.pending_services(), kBlocks);
  for (std::uint64_t k = kBlocks; k-- > 0;) send(MsgType::kUnblock, k, first(k));
  // A third of the lines move to a new owner, a third gain a sharer.
  for (std::uint64_t k = 0; k < kBlocks; ++k) {
    if (k % 3 == 0) continue;
    send(k % 3 == 1 ? MsgType::kGetX : MsgType::kGetS, k, second(k));
    send(MsgType::kUnblock, k, second(k));
  }
  kernel.run_for(400);

  EXPECT_EQ(dir.entry_count(), kBlocks);
  EXPECT_EQ(dir.pending_services(), 0u);
  for (std::uint64_t k = 0; k < kBlocks; ++k) {
    const auto* e = dir.peek(block(k));
    ASSERT_NE(e, nullptr) << "block " << k;
    ASSERT_FALSE(e->busy);
    switch (k % 3) {
      case 0:
        ASSERT_EQ(e->state, Directory::DirState::kEM) << "block " << k;
        ASSERT_EQ(e->owner, first(k));
        break;
      case 1:
        ASSERT_EQ(e->state, Directory::DirState::kEM) << "block " << k;
        ASSERT_EQ(e->owner, second(k));
        break;
      default:
        ASSERT_EQ(e->state, Directory::DirState::kS) << "block " << k;
        ASSERT_EQ(e->sharers.to_vector(),
                  (std::vector<NodeId>{std::min(first(k), second(k)),
                                       std::max(first(k), second(k))}));
        break;
    }
  }
  EXPECT_EQ(dir.peek(block(kBlocks)), nullptr);
  EXPECT_EQ(dir.peek(block(0) + CacheConfig::block_bytes), nullptr);
  EXPECT_EQ(dir.entry_count(), kBlocks) << "peek must not insert";
  EXPECT_GT(sent, kBlocks);
}

}  // namespace
}  // namespace puno::coherence

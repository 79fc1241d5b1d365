// L1 controller unit tests: drive handle_message() with hand-crafted
// responses (no directory, no network) to pin down MSHR response-collection
// order-independence, retry/backoff/cancel behaviour and conflict-response
// generation.
#include "coherence/l1_controller.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

namespace puno::coherence {
namespace {

/// Scriptable transaction-layer stub.
class MockHooks final : public TxnHooks {
 public:
  ConflictVerdict on_remote_request(BlockAddr, bool, Timestamp, NodeId,
                                    bool u_bit) override {
    ++remote_requests;
    ConflictVerdict v = next_verdict;
    if (u_bit && v.decision != ConflictDecision::kNack) {
      v = {ConflictDecision::kNack, 0, true};
    }
    return v;
  }
  [[nodiscard]] bool is_txn_line(BlockAddr addr) const override {
    return pinned.contains(addr);
  }
  void on_overflow_eviction(BlockAddr) override {
    ++overflow_aborts;
    pinned.clear();
  }
  [[nodiscard]] Cycle retry_backoff(Cycle, std::uint32_t) override {
    return backoff;
  }
  void on_getx_outcome(BlockAddr, bool success, std::uint32_t nacks,
                       std::uint32_t aborted) override {
    last_outcome = {success, nacks, aborted};
    ++outcomes;
  }
  [[nodiscard]] Timestamp current_ts() const override { return ts; }
  [[nodiscard]] Cycle avg_txn_len() const override { return 0; }

  ConflictVerdict next_verdict{ConflictDecision::kGrant, 0, false};
  std::unordered_set<BlockAddr> pinned;
  Timestamp ts = kInvalidTimestamp;
  Cycle backoff = 20;
  int remote_requests = 0;
  int overflow_aborts = 0;
  int outcomes = 0;
  struct Outcome {
    bool success;
    std::uint32_t nacks;
    std::uint32_t aborted;
  } last_outcome{};
};

struct SentMsg {
  NodeId dst;
  Message msg;
};

class L1UnitTest : public ::testing::Test {
 protected:
  L1UnitTest() {
    l1_ = std::make_unique<L1Controller>(
        kernel_, cfg_, kNode, hooks_,
        [this](NodeId dst, std::shared_ptr<const Message> m) {
          sent_.push_back({dst, *m});
        });
    l1_->set_completion([this](bool ok) { completions_.push_back(ok); });
  }

  /// The outstanding operation has completed, performed or cancelled.
  [[nodiscard]] bool completed() const { return !completions_.empty(); }
  /// The outstanding operation has completed and performed.
  [[nodiscard]] bool succeeded() const {
    return completed() && completions_.back();
  }

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

  /// Delivers a Data response for the outstanding miss.
  void deliver_data(BlockAddr addr, std::uint32_t expected, bool exclusive,
                    bool sole = false) {
    Message m;
    m.type = MsgType::kData;
    m.addr = addr;
    m.sender = cfg_.home_of(addr);
    m.requester = kNode;
    m.exclusive = exclusive;
    m.expected_responses = expected;
    m.sole = sole;
    l1_->handle_message(m);
  }
  void deliver_ack(BlockAddr addr, NodeId from, bool aborted = false) {
    Message m;
    m.type = MsgType::kAck;
    m.addr = addr;
    m.sender = from;
    m.requester = kNode;
    m.responder_aborted = aborted;
    l1_->handle_message(m);
  }
  void deliver_nack(BlockAddr addr, NodeId from, bool sole = false,
                    Cycle notification = 0) {
    Message m;
    m.type = MsgType::kNack;
    m.addr = addr;
    m.sender = from;
    m.requester = kNode;
    m.sole = sole;
    m.notification = notification;
    l1_->handle_message(m);
  }

  static constexpr NodeId kNode = 0;
  sim::Kernel kernel_;
  SystemConfig cfg_;
  MockHooks hooks_;
  std::unique_ptr<L1Controller> l1_;
  std::deque<SentMsg> sent_;
  std::vector<bool> completions_;  ///< Every completion, in order.
};

TEST_F(L1UnitTest, StoreMissCompletesAfterDataAndAllAcks) {
  l1_->store(0x1000, false);
  const SentMsg req = expect_sent(MsgType::kGetX);
  EXPECT_EQ(req.dst, cfg_.home_of(0x1000));

  deliver_data(0x1000, 2, true);
  EXPECT_FALSE(succeeded());
  deliver_ack(0x1000, 3);
  EXPECT_FALSE(succeeded());
  deliver_ack(0x1000, 5);
  EXPECT_TRUE(succeeded());
  const SentMsg ub = expect_sent(MsgType::kUnblock);
  EXPECT_TRUE(ub.msg.success);
  EXPECT_EQ(l1_->line_state(0x1000), L1Controller::LineState::kM);
}

TEST_F(L1UnitTest, AcksBeforeDataAreCountedCorrectly) {
  l1_->store(0x1000, false);
  expect_sent(MsgType::kGetX);
  deliver_ack(0x1000, 3);
  deliver_ack(0x1000, 5);
  EXPECT_FALSE(succeeded())
      << "completion needs the Data (it carries the count)";
  deliver_data(0x1000, 2, true);
  EXPECT_TRUE(succeeded());
  expect_sent(MsgType::kUnblock);
}

TEST_F(L1UnitTest, NackedStoreReportsFailureAndRetriesAfterBackoff) {
  hooks_.backoff = 50;
  l1_->store(0x1000, true);
  hooks_.ts = 7;  // inside a "transaction" now
  expect_sent(MsgType::kGetX);

  deliver_data(0x1000, 2, true);
  deliver_ack(0x1000, 3, /*aborted=*/true);
  deliver_nack(0x1000, 5);
  EXPECT_FALSE(succeeded());
  const SentMsg ub = expect_sent(MsgType::kUnblock);
  EXPECT_FALSE(ub.msg.success);
  EXPECT_EQ(ub.msg.surviving_sharers.mask64(), node_bit(5));
  EXPECT_EQ(hooks_.outcomes, 1);
  EXPECT_FALSE(hooks_.last_outcome.success);
  EXPECT_EQ(hooks_.last_outcome.nacks, 1u);
  EXPECT_EQ(hooks_.last_outcome.aborted, 1u);

  kernel_.run_for(49);
  EXPECT_TRUE(sent_.empty()) << "still backing off";
  kernel_.run_for(3);
  expect_sent(MsgType::kGetX);  // the retry ("polling")
}

TEST_F(L1UnitTest, SoleNackResolvesImmediately) {
  l1_->store(0x1000, true);
  expect_sent(MsgType::kGetX);
  deliver_nack(0x1000, 5, /*sole=*/true, /*notification=*/300);
  EXPECT_FALSE(succeeded());
  const SentMsg ub = expect_sent(MsgType::kUnblock);
  EXPECT_FALSE(ub.msg.success);
}

TEST_F(L1UnitTest, CancelDuringBackoffFinalizesWithoutRetry) {
  hooks_.backoff = 100;
  l1_->store(0x1000, true);
  expect_sent(MsgType::kGetX);
  deliver_nack(0x1000, 5, true);
  expect_sent(MsgType::kUnblock);
  l1_->on_local_abort();  // txn died while waiting
  kernel_.run_for(120);
  EXPECT_TRUE(completed());
  EXPECT_FALSE(succeeded()) << "cancelled, not completed";
  EXPECT_TRUE(sent_.empty()) << "no retry after cancellation";
  EXPECT_FALSE(l1_->has_outstanding_miss());
}

TEST_F(L1UnitTest, RetryHintCutsBackoffShort) {
  hooks_.backoff = 5000;
  l1_->store(0x1000, true);
  expect_sent(MsgType::kGetX);
  deliver_nack(0x1000, 5, true);
  expect_sent(MsgType::kUnblock);

  kernel_.run_for(10);
  Message hint;
  hint.type = MsgType::kRetryHint;
  hint.addr = 0x1000;
  hint.sender = 5;
  hint.requester = kNode;
  l1_->handle_message(hint);
  expect_sent(MsgType::kGetX);  // immediate re-issue
  // The stale 5000-cycle wakeup must not fire a second request.
  kernel_.run_for(6000);
  EXPECT_TRUE(sent_.empty());
  EXPECT_FALSE(succeeded());
}

TEST_F(L1UnitTest, InvToUnknownLineAcksAsStaleSharer) {
  Message inv;
  inv.type = MsgType::kInv;
  inv.addr = 0x2000;
  inv.sender = cfg_.home_of(0x2000);
  inv.requester = 9;
  l1_->handle_message(inv);
  kernel_.run_for(1);  // the (zero-delay) ack rides a kernel event
  const SentMsg ack = expect_sent(MsgType::kAck);
  EXPECT_EQ(ack.dst, 9);
  EXPECT_FALSE(ack.msg.responder_aborted);
}

TEST_F(L1UnitTest, ConflictNackCarriesNotification) {
  // Install the line as S, then receive an Inv while the hooks say "nack".
  l1_->load(0x2000, false, false);
  expect_sent(MsgType::kGetS);
  deliver_data(0x2000, 0, false, true);
  EXPECT_TRUE(completed());
  expect_sent(MsgType::kUnblock);

  hooks_.next_verdict = {ConflictDecision::kNack, 333, false};
  Message inv;
  inv.type = MsgType::kInv;
  inv.addr = 0x2000;
  inv.sender = cfg_.home_of(0x2000);
  inv.requester = 9;
  l1_->handle_message(inv);
  const SentMsg nack = expect_sent(MsgType::kNack);
  EXPECT_EQ(nack.dst, 9);
  EXPECT_EQ(nack.msg.notification, 333u);
  EXPECT_EQ(l1_->line_state(0x2000), L1Controller::LineState::kS)
      << "nacked invalidation keeps the line";
}

TEST_F(L1UnitTest, GrantAfterAbortDelaysResponseAndInvalidates) {
  l1_->load(0x2000, false, false);
  expect_sent(MsgType::kGetS);
  deliver_data(0x2000, 0, false, true);
  expect_sent(MsgType::kUnblock);
  ASSERT_TRUE(completed());

  hooks_.next_verdict = {ConflictDecision::kGrantAfterAbort, 0, false};
  Message inv;
  inv.type = MsgType::kInv;
  inv.addr = 0x2000;
  inv.sender = cfg_.home_of(0x2000);
  inv.requester = 9;
  l1_->handle_message(inv);
  EXPECT_TRUE(sent_.empty()) << "abort-recovery latency delays the ack";
  kernel_.run_for(cfg_.htm.abort_recovery_latency + 1);
  const SentMsg ack = expect_sent(MsgType::kAck);
  EXPECT_TRUE(ack.msg.responder_aborted);
  EXPECT_EQ(l1_->line_state(0x2000), std::nullopt);
}

TEST_F(L1UnitTest, UbitInvNeverInvalidates) {
  l1_->load(0x2000, false, false);
  expect_sent(MsgType::kGetS);
  deliver_data(0x2000, 0, false, true);
  expect_sent(MsgType::kUnblock);

  hooks_.next_verdict = {ConflictDecision::kGrant, 0, false};  // no conflict
  Message inv;
  inv.type = MsgType::kInv;
  inv.addr = 0x2000;
  inv.sender = cfg_.home_of(0x2000);
  inv.requester = 9;
  inv.u_bit = true;
  inv.sole = true;
  l1_->handle_message(inv);
  const SentMsg nack = expect_sent(MsgType::kNack);
  EXPECT_TRUE(nack.msg.mp_bit) << "conservative misprediction NACK";
  EXPECT_TRUE(nack.msg.sole);
  EXPECT_NE(l1_->line_state(0x2000), std::nullopt);
}

TEST_F(L1UnitTest, FwdGetSDowngradesAndWritesBack) {
  l1_->store(0x2000, false);
  expect_sent(MsgType::kGetX);
  deliver_data(0x2000, 0, true, true);
  expect_sent(MsgType::kUnblock);
  ASSERT_TRUE(completed());
  ASSERT_EQ(l1_->line_state(0x2000), L1Controller::LineState::kM);

  Message fwd;
  fwd.type = MsgType::kFwdGetS;
  fwd.addr = 0x2000;
  fwd.sender = cfg_.home_of(0x2000);
  fwd.requester = 9;
  fwd.sole = true;
  l1_->handle_message(fwd);
  kernel_.run_for(2);
  const SentMsg data = expect_sent(MsgType::kData);
  EXPECT_EQ(data.dst, 9);
  EXPECT_FALSE(data.msg.exclusive);
  const SentMsg wb = expect_sent(MsgType::kWbData);
  EXPECT_EQ(wb.dst, cfg_.home_of(0x2000));
  EXPECT_EQ(l1_->line_state(0x2000), L1Controller::LineState::kS);
}

TEST_F(L1UnitTest, MispredictionFeedbackRidesTheUnblock) {
  l1_->store(0x1000, true);
  expect_sent(MsgType::kGetX);
  Message nack;
  nack.type = MsgType::kNack;
  nack.addr = 0x1000;
  nack.sender = 5;
  nack.requester = kNode;
  nack.sole = true;
  nack.mp_bit = true;
  l1_->handle_message(nack);
  const SentMsg ub = expect_sent(MsgType::kUnblock);
  EXPECT_TRUE(ub.msg.mp_bit);
  EXPECT_EQ(ub.msg.mp_node, 5);
  EXPECT_FALSE(succeeded());
}

TEST_F(L1UnitTest, EveryReplyGoesToTheForwardsRequesterAndNamesItsBlock) {
  constexpr NodeId kRequester = 9;
  // The reply rule: every Data, Ack or Nack answering a forward goes to
  // the forward's requester, names its block and comes from this node.
  const auto forward = [&](MsgType type, BlockAddr block, bool sole,
                           bool u_bit = false) {
    Message f;
    f.type = type;
    f.addr = block;
    f.sender = cfg_.home_of(block);
    f.requester = kRequester;
    f.sole = sole;
    f.u_bit = u_bit;
    l1_->handle_message(f);
    kernel_.run_for(1);  // replies may ride a zero-delay event
  };
  const auto expect_reply = [&](MsgType type, BlockAddr block) {
    const SentMsg r = expect_sent(type);
    EXPECT_EQ(r.dst, kRequester);
    EXPECT_EQ(r.msg.requester, kRequester);
    EXPECT_EQ(r.msg.addr, block);
    EXPECT_EQ(r.msg.sender, kNode);
  };
  const auto own = [&](BlockAddr block) {
    l1_->store(block, false);
    expect_sent(MsgType::kGetX);
    deliver_data(block, 0, true, true);
  };

  // From the cache: a stale-sharer Ack, a conflict Nack, an owner's Data.
  forward(MsgType::kInv, 0x3000, false);
  expect_reply(MsgType::kAck, 0x3000);
  own(0x2000);
  expect_sent(MsgType::kUnblock);
  hooks_.next_verdict = {ConflictDecision::kNack, 0, false};
  forward(MsgType::kInv, 0x2000, false);
  expect_reply(MsgType::kNack, 0x2000);
  hooks_.next_verdict = {ConflictDecision::kGrant, 0, false};
  forward(MsgType::kFwdGetS, 0x2000, true);
  expect_reply(MsgType::kData, 0x2000);
  expect_sent(MsgType::kWbData);
  forward(MsgType::kInv, 0x2000, true);
  expect_reply(MsgType::kAck, 0x2000);  // a sharer's copy is dropped

  // From the writeback buffer: four more lines of 0x10000's set evict it.
  constexpr BlockAddr kSetStride = 0x2000;  // 128 sets x 64 B
  own(0x10000);
  expect_sent(MsgType::kUnblock);
  for (BlockAddr k = 1; k <= 4; ++k) {
    own(0x10000 + k * kSetStride);
    if (k == 4) expect_sent(MsgType::kPutX);
    expect_sent(MsgType::kUnblock);
  }
  ASSERT_TRUE(l1_->has_writeback(0x10000));
  forward(MsgType::kFwdGetS, 0x10000, true);
  expect_reply(MsgType::kData, 0x10000);
  expect_sent(MsgType::kWbData);
  forward(MsgType::kInv, 0x10000, true);
  expect_reply(MsgType::kData, 0x10000);
  forward(MsgType::kInv, 0x10000, false);
  expect_reply(MsgType::kAck, 0x10000);
  forward(MsgType::kInv, 0x10000, true, /*u_bit=*/true);
  expect_reply(MsgType::kNack, 0x10000);
  EXPECT_TRUE(sent_.empty());
}

}  // namespace
}  // namespace puno::coherence

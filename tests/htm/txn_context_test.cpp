// TxnContext unit tests: conflict verdicts, set tracking, timestamps,
// backoff policies. Uses a bare kernel (no L1/mesh needed at this level).
#include "htm/txn_context.hpp"

#include <gtest/gtest.h>

#include "coherence/hooks.hpp"

namespace puno::htm {
namespace {

using coherence::ConflictDecision;
using coherence::ConflictVerdict;

class TxnContextTest : public ::testing::Test {
 protected:
  TxnContextTest() { cfg_.scheme = Scheme::kBaseline; }

  TxnContext make(NodeId node = 0) {
    return TxnContext(kernel_, cfg_, node, /*avg_c2c=*/13);
  }

  sim::Kernel kernel_;
  SystemConfig cfg_;
};

TEST_F(TxnContextTest, BeginEntersTransaction) {
  auto t = make();
  EXPECT_FALSE(t.in_txn());
  t.begin(3);
  EXPECT_TRUE(t.in_txn());
  EXPECT_NE(t.current_ts(), kInvalidTimestamp);
}

TEST_F(TxnContextTest, TimestampEncodesNodeForUniqueness) {
  auto a = make(0);
  auto b = make(1);
  a.begin(0);
  b.begin(0);
  EXPECT_NE(a.current_ts(), b.current_ts());
}

TEST_F(TxnContextTest, LaterBeginHasLargerTimestamp) {
  auto a = make(0);
  a.begin(0);
  const Timestamp first = a.current_ts();
  a.commit();
  kernel_.run_for(10);
  a.begin(0);
  EXPECT_GT(a.current_ts(), first);
}

TEST_F(TxnContextTest, CommitClearsSetsAndCounts) {
  auto t = make();
  t.begin(0);
  t.on_access(0x40, false, 1);
  t.on_access(0x80, true, 2);
  EXPECT_EQ(t.read_set_size(), 2u) << "writes are implicit reads";
  EXPECT_EQ(t.write_set_size(), 1u);
  t.commit();
  EXPECT_FALSE(t.in_txn());
  EXPECT_EQ(t.read_set_size(), 0u);
  EXPECT_EQ(t.write_set_size(), 0u);
  EXPECT_EQ(kernel_.stats().counter("htm.commits").value(), 1u);
}

TEST_F(TxnContextTest, AccessesOutsideTransactionIgnored) {
  auto t = make();
  t.on_access(0x40, true, 1);
  EXPECT_EQ(t.write_set_size(), 0u);
}

TEST_F(TxnContextTest, BlockGranularity) {
  auto t = make();
  t.begin(0);
  t.on_access(0x40, false, 1);
  t.on_access(0x41, false, 2);  // same 64B block
  EXPECT_EQ(t.read_set_size(), 1u);
}

TEST_F(TxnContextTest, NoConflictWhenLineNotInSets) {
  auto t = make();
  t.begin(0);
  t.on_access(0x40, false, 1);
  const ConflictVerdict v = t.on_remote_request(0x80, true, 0, 1, false);
  EXPECT_EQ(v.decision, ConflictDecision::kGrant);
}

TEST_F(TxnContextTest, WriteToReadSetConflicts) {
  auto t = make();
  kernel_.run_for(10);
  t.begin(0);
  t.on_access(0x40, false, 1);
  // Requester with ts 0 is older than us: we abort.
  const ConflictVerdict v = t.on_remote_request(0x40, true, 0, 1, false);
  EXPECT_EQ(v.decision, ConflictDecision::kGrantAfterAbort);
  EXPECT_TRUE(t.aborted());
  EXPECT_EQ(t.read_set_size(), 0u) << "abort clears the sets";
}

TEST_F(TxnContextTest, WriteToReadSetNackedWhenWeAreOlder) {
  auto t = make();
  t.begin(0);
  t.on_access(0x40, false, 1);
  const Timestamp younger = t.current_ts() + 100;
  const ConflictVerdict v = t.on_remote_request(0x40, true, younger, 1, false);
  EXPECT_EQ(v.decision, ConflictDecision::kNack);
  EXPECT_FALSE(t.aborted());
}

TEST_F(TxnContextTest, ReadOfWriteSetConflictsButReadOfReadSetDoesNot) {
  auto t = make();
  t.begin(0);
  t.on_access(0x40, false, 1);
  t.on_access(0x80, true, 2);
  const Timestamp younger = t.current_ts() + 100;
  EXPECT_EQ(t.on_remote_request(0x40, false, younger, 1, false).decision,
            ConflictDecision::kGrant)
      << "read-read sharing is never a conflict";
  EXPECT_EQ(t.on_remote_request(0x80, false, younger, 1, false).decision,
            ConflictDecision::kNack)
      << "reading a transactional store is a conflict";
}

TEST_F(TxnContextTest, UnicastNeverAborts) {
  auto t = make();
  kernel_.run_for(10);
  t.begin(0);
  t.on_access(0x40, false, 1);
  // Requester older: a plain Inv would abort us, a U-bit Inv must not.
  const ConflictVerdict v = t.on_remote_request(0x40, true, 0, 1, true);
  EXPECT_EQ(v.decision, ConflictDecision::kNack);
  EXPECT_TRUE(v.mispredicted);
  EXPECT_FALSE(t.aborted());
}

TEST_F(TxnContextTest, UnicastToNonConflictingNodeIsMisprediction) {
  auto t = make();
  const ConflictVerdict v = t.on_remote_request(0x40, true, 5, 1, true);
  EXPECT_EQ(v.decision, ConflictDecision::kNack);
  EXPECT_TRUE(v.mispredicted);
}

TEST_F(TxnContextTest, UnicastToCorrectNackerIsNotMisprediction) {
  auto t = make();
  t.begin(0);
  t.on_access(0x40, false, 1);
  const Timestamp younger = t.current_ts() + 100;
  const ConflictVerdict v = t.on_remote_request(0x40, true, younger, 1, true);
  EXPECT_EQ(v.decision, ConflictDecision::kNack);
  EXPECT_FALSE(v.mispredicted);
}

TEST_F(TxnContextTest, NotificationOnlyUnderPuno) {
  cfg_.scheme = Scheme::kPuno;
  auto t = make();
  // Train the TxLB so there is an estimate: commit one instance of site 0.
  t.begin(0);
  kernel_.run_for(200);
  t.commit();
  kernel_.run_for(10);
  t.begin(0);
  t.on_access(0x40, false, 1);
  kernel_.run_for(50);
  const Timestamp younger = t.current_ts() + 1000;
  const ConflictVerdict v = t.on_remote_request(0x40, true, younger, 1, false);
  EXPECT_EQ(v.decision, ConflictDecision::kNack);
  EXPECT_GT(v.notification, 0u) << "~150 cycles of the 200-cycle avg remain";
  EXPECT_LE(v.notification, 200u);
}

TEST_F(TxnContextTest, NoNotificationUnderBaseline) {
  auto t = make();
  t.begin(0);
  kernel_.run_for(200);
  t.commit();
  kernel_.run_for(10);
  t.begin(0);
  t.on_access(0x40, false, 1);
  const Timestamp younger = t.current_ts() + 1000;
  const ConflictVerdict v = t.on_remote_request(0x40, true, younger, 1, false);
  EXPECT_EQ(v.notification, 0u);
}

TEST_F(TxnContextTest, RetryBackoffFixedUnderBaseline) {
  auto t = make();
  EXPECT_EQ(t.retry_backoff(1000, 0), cfg_.htm.fixed_backoff);
}

TEST_F(TxnContextTest, RetryBackoffUsesNotificationUnderPuno) {
  cfg_.scheme = Scheme::kPuno;
  auto t = make();
  // notification 1000, RTT = 2*13 = 26 -> 974.
  EXPECT_EQ(t.retry_backoff(1000, 0), 974u);
  // Small notifications fall back to the fixed backoff.
  EXPECT_EQ(t.retry_backoff(10, 0), cfg_.htm.fixed_backoff);
  EXPECT_EQ(t.retry_backoff(0, 0), cfg_.htm.fixed_backoff);
}

TEST_F(TxnContextTest, RestartBackoffZeroExceptRandomScheme) {
  auto t = make();
  EXPECT_EQ(t.restart_backoff(), 0u);
}

TEST_F(TxnContextTest, RandomizedLinearBackoffGrowsWithAborts) {
  cfg_.scheme = Scheme::kRandomBackoff;
  auto t = make();
  kernel_.run_for(10);
  t.begin(0);
  t.on_access(0x40, false, 1);
  // First abort: window is [0, 1 slot].
  (void)t.on_remote_request(0x40, true, 0, 1, false);
  ASSERT_TRUE(t.aborted());
  Cycle max_seen_1 = 0;
  for (int i = 0; i < 50; ++i) max_seen_1 = std::max(max_seen_1, t.restart_backoff());
  EXPECT_LE(max_seen_1, 1u * cfg_.htm.backoff_slot);

  // Simulate more aborts of the same instance.
  for (int k = 0; k < 4; ++k) {
    t.begin(0);
    t.on_access(0x40, false, 1);
    (void)t.on_remote_request(0x40, true, 0, 1, false);
  }
  EXPECT_EQ(t.attempt_aborts(), 5u);
  Cycle max_seen_5 = 0;
  for (int i = 0; i < 50; ++i) max_seen_5 = std::max(max_seen_5, t.restart_backoff());
  EXPECT_GT(max_seen_5, max_seen_1) << "window grows linearly with aborts";
  EXPECT_LE(max_seen_5, 5u * cfg_.htm.backoff_slot);
}

TEST_F(TxnContextTest, RmwPredictorOnlyActiveUnderRmwScheme) {
  auto base = make();
  base.begin(0);
  base.on_access(0x40, false, 77);
  base.on_access(0x40, true, 78);  // trains pc 77 as RMW
  base.commit();
  EXPECT_FALSE(base.should_load_exclusive(77)) << "inactive under baseline";

  cfg_.scheme = Scheme::kRmwPred;
  auto rmw = make();
  rmw.begin(0);
  rmw.on_access(0x40, false, 77);
  rmw.on_access(0x40, true, 78);
  rmw.commit();
  EXPECT_TRUE(rmw.should_load_exclusive(77));
  EXPECT_FALSE(rmw.should_load_exclusive(99));
}

TEST_F(TxnContextTest, OnlyTheRmwSchemeTrainsThePredictor) {
  for (const Scheme scheme :
       {Scheme::kBaseline, Scheme::kPuno, Scheme::kRmwPred}) {
    cfg_.scheme = scheme;
    auto t = make();
    t.begin(0);
    t.on_access(0x40, false, 77);
    t.on_access(0x40, true, 78);  // pc 77 was the read half of an RMW
    t.commit();
    const RmwPredictor* rmw = t.rmw_predictor();
    if (scheme == Scheme::kRmwPred) {
      ASSERT_NE(rmw, nullptr);
      EXPECT_TRUE(rmw->predict_exclusive(77)) << "trained on commit";
      EXPECT_FALSE(rmw->predict_exclusive(78));
    } else {
      EXPECT_EQ(rmw, nullptr) << "no predictor to train under scheme "
                              << static_cast<int>(scheme);
    }
  }
}

TEST_F(TxnContextTest, GoodAndDiscardedCyclesAccumulate) {
  auto t = make();
  t.begin(0);
  kernel_.run_for(100);
  t.commit();
  EXPECT_EQ(kernel_.stats().counter("htm.good_cycles").value(), 100u);
  kernel_.run_for(10);
  t.begin(1);
  kernel_.run_for(40);
  (void)t.on_remote_request(0x40, true, 0, 1, false);  // no conflict: grant
  t.on_access(0x40, false, 1);
  (void)t.on_remote_request(0x40, true, 0, 1, false);  // conflict: abort
  EXPECT_TRUE(t.aborted());
  EXPECT_EQ(kernel_.stats().counter("htm.discarded_cycles").value(), 40u);
}

TEST_F(TxnContextTest, FalseAbortAccounting) {
  auto t = make();
  t.on_getx_outcome(0x40, /*success=*/false, /*nacks=*/1,
                    /*aborted_sharers=*/3);
  EXPECT_EQ(kernel_.stats().counter("htm.false_abort_events").value(), 1u);
  EXPECT_EQ(kernel_.stats().counter("htm.falsely_aborted_txns").value(), 3u);
  // Successful or abort-free outcomes are not false aborting.
  t.on_getx_outcome(0x40, true, 0, 2);
  t.on_getx_outcome(0x40, false, 2, 0);
  EXPECT_EQ(kernel_.stats().counter("htm.false_abort_events").value(), 1u);
}

TEST_F(TxnContextTest, IsTxnLineTracksSets) {
  auto t = make();
  EXPECT_FALSE(t.is_txn_line(0x40));
  t.begin(0);
  t.on_access(0x40, false, 1);
  EXPECT_TRUE(t.is_txn_line(0x40));
  t.commit();
  EXPECT_FALSE(t.is_txn_line(0x40));
}

TEST_F(TxnContextTest, AvgTxnLenComesFromTxLB) {
  auto t = make();
  EXPECT_EQ(t.avg_txn_len(), 0u);
  t.begin(0);
  kernel_.run_for(120);
  t.commit();
  EXPECT_EQ(t.avg_txn_len(), 120u);
}

}  // namespace
}  // namespace puno::htm

// Commit-hint extension (DESIGN.md / paper Section VI future work): a
// finishing nacker tells its waiting requesters to retry, cutting the
// oversleep of an overestimated notification.
#include <gtest/gtest.h>

#include "../support/fixture.hpp"

namespace puno::testing {
namespace {

constexpr Addr block_homed_at(NodeId home, int k = 0) {
  return (static_cast<Addr>(home) + 16ull * k) * 64;
}

class CommitHintTest : public ProtocolFixture {
 protected:
  CommitHintTest() : ProtocolFixture(make_config()) {}
  static SystemConfig make_config() {
    SystemConfig cfg;
    cfg.scheme = Scheme::kPuno;
    cfg.puno.enable_commit_hint = true;
    cfg.puno.min_timeout = 1u << 20;  // freeze decay for directed scenarios
    cfg.puno.max_timeout = 1u << 20;
    return cfg;
  }

  /// Trains node 0's TxLB so its NACKs carry a large notification, then
  /// makes node 1 wait on node 0's line.
  Addr setup_long_nacker() {
    const Addr addr = block_homed_at(1);
    txns_[0]->begin(3);
    EXPECT_TRUE(do_load(0, addr, true));
    run(3000);
    txns_[0]->commit();  // TxLB[3] ~ 3000 cycles
    run(10);
    txns_[0]->begin(3);
    EXPECT_TRUE(do_load(0, addr, true));
    run(10);
    txns_[1]->begin(0);
    return addr;
  }
};

TEST_F(CommitHintTest, HintWakesWaiterLongBeforeNotificationExpires) {
  const Addr addr = setup_long_nacker();
  auto done = async_store(1, addr);
  run(1000);
  ASSERT_FALSE(*done);
  ASSERT_GT(stat("htm.notified_backoffs"), 0u)
      << "the waiter slept on a ~3000-cycle estimate";

  // Node 0 commits early (after ~1000 of the estimated ~3000 cycles); the
  // hint must wake node 1 well before the estimate would have expired.
  const Cycle commit_at = kernel_.now();
  txns_[0]->commit();
  kernel_.run_until([&] { return *done; }, 100000);
  EXPECT_TRUE(*done);
  EXPECT_GT(stat("htm.commit_hints_sent"), 0u);
  EXPECT_GT(stat("l1.hint_wakeups"), 0u);
  EXPECT_LT(kernel_.now() - commit_at, 500u)
      << "without the hint the waiter would sleep ~2000 more cycles";
}

TEST_F(CommitHintTest, AbortAlsoReleasesWaiters) {
  const Addr addr = setup_long_nacker();
  auto done = async_store(1, addr);
  run(1000);
  ASSERT_FALSE(*done);

  // A third, older transaction aborts node 0 -> node 0's claim disappears
  // and its waiters must be released. Use an overflow abort to avoid
  // introducing another contender for `addr` itself.
  const Addr set_stride = 128ull * 64;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(do_load(0, 1 * 64 + i * set_stride, true, false, 300000));
  }
  ASSERT_TRUE(do_load(0, 1 * 64 + 4 * set_stride, true, false, 300000));
  ASSERT_TRUE(txns_[0]->aborted());

  kernel_.run_until([&] { return *done; }, 100000);
  EXPECT_TRUE(*done) << "the waiter retried after the abort hint";
  EXPECT_GT(stat("l1.hint_wakeups"), 0u);
}

TEST_F(CommitHintTest, NoHintsWhenExtensionDisabled) {
  cfg_.puno.enable_commit_hint = false;  // components read the shared cfg
  const Addr addr = setup_long_nacker();
  auto done = async_store(1, addr);
  run(1000);
  ASSERT_FALSE(*done);
  txns_[0]->commit();
  kernel_.run_until([&] { return *done; }, 100000);
  EXPECT_TRUE(*done);
  EXPECT_EQ(stat("htm.commit_hints_sent"), 0u);
  EXPECT_EQ(stat("l1.hint_wakeups"), 0u);
}

TEST_F(CommitHintTest, HintForIdleLineIsHarmless) {
  // A hint arriving when nothing waits (the retry already happened) must be
  // ignored without disturbing the MSHR-less L1.
  const Addr addr = block_homed_at(1);
  auto hint = coherence::make_message(coherence::MsgType::kRetryHint, addr,
                                      /*sender=*/0, /*requester=*/2);
  l1s_[2]->handle_message(*hint);
  run(10);
  EXPECT_EQ(stat("l1.hint_wakeups"), 0u);
  EXPECT_TRUE(do_load(2, addr));
}

TEST_F(CommitHintTest, WaiterBufferIsBounded) {
  // More distinct waiters than commit_hint_entries: the buffer must drop
  // oldest entries rather than grow; the run stays correct.
  const Addr base_addr = block_homed_at(1);
  txns_[0]->begin(0);
  for (int k = 0; k < 12; ++k) {
    ASSERT_TRUE(do_load(0, block_homed_at(1, k), true, false, 300000));
  }
  // 12 younger writers pile onto node 0's read set.
  std::vector<std::shared_ptr<bool>> done;
  run(10);
  for (NodeId n = 1; n <= 12; ++n) {
    txns_[n]->begin(0);
    done.push_back(async_store(n, block_homed_at(1, n - 1)));
  }
  run(4000);
  txns_[0]->commit();
  kernel_.run_until(
      [&] {
        for (const auto& d : done) {
          if (!*d) return false;
        }
        return true;
      },
      500000);
  for (const auto& d : done) EXPECT_TRUE(*d);
  EXPECT_LE(stat("htm.commit_hints_sent"), cfg_.puno.commit_hint_entries);
  (void)base_addr;
}

}  // namespace
}  // namespace puno::testing

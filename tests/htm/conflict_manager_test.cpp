// Cross-scheme conformance suite for the ConflictManager framework
// (ctest label: scheme_matrix).
//
// Every registered scheme — the table is kAllSchemes, generated from
// PUNO_SCHEME_LIST — runs through the same scripted conflict scenarios
// (reader-writer race, write-write race, NACK cycle, self-abort) plus one
// small full-system run, and must satisfy the interface contracts:
//
//   * a conflicting request is never silently granted;
//   * the verdict and the transaction's abort state agree (kGrantAfterAbort
//     iff the local transaction aborted);
//   * a transaction never counts as both committed and aborted;
//   * every abort carries a populated cause (the per-cause counters sum to
//     the abort counter);
//   * both backoff policies are bounded;
//   * the scheme round-trips through to_string / scheme_from_string.
//
// A new scheme is added to the table (PUNO_SCHEME_LIST + the registry), not
// to this file.
#include "htm/conflict_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "../support/fixture.hpp"
#include "coherence/hooks.hpp"
#include "htm/txn_context.hpp"
#include "sim/config.hpp"
#include "sim/kernel.hpp"

namespace puno::htm {
namespace {

using coherence::ConflictDecision;
using coherence::ConflictVerdict;

[[nodiscard]] bool uses_fallback_timestamps(Scheme s) {
  return s == Scheme::kRequesterWins || s == Scheme::kLimitedSet;
}

class SchemeConformance : public ::testing::TestWithParam<Scheme> {
 protected:
  SchemeConformance() { cfg_.scheme = GetParam(); }

  TxnContext make(NodeId node) {
    return TxnContext(kernel_, cfg_, node, /*avg_c2c=*/8);
  }

  [[nodiscard]] std::uint64_t stat(const char* name) {
    return kernel_.stats().counter(name).value();
  }

  /// Contract: every abort has exactly one populated cause.
  void expect_abort_causes_populated() {
    EXPECT_EQ(stat("htm.aborts"),
              stat("htm.aborts_by_getx") + stat("htm.aborts_by_gets") +
                  stat("htm.aborts_overflow"))
        << "abort causes must partition htm.aborts";
  }

  /// Contract: the verdict for a conflicting request and the local
  /// transaction's state agree, and the conflict was not ignored.
  static void expect_verdict_consistent(const ConflictVerdict& v,
                                        const TxnContext& t) {
    EXPECT_NE(v.decision, ConflictDecision::kGrant)
        << "a conflicting request must abort the local txn or be NACKed";
    EXPECT_EQ(v.decision == ConflictDecision::kGrantAfterAbort, t.aborted())
        << "kGrantAfterAbort iff the local transaction aborted";
  }

  sim::Kernel kernel_;
  SystemConfig cfg_;
};

TEST_P(SchemeConformance, SchemeRoundTripsThroughStringTable) {
  const Scheme s = GetParam();
  const auto parsed = scheme_from_string(to_string(s));
  ASSERT_TRUE(parsed.has_value()) << to_string(s);
  EXPECT_EQ(*parsed, s);
}

TEST_P(SchemeConformance, RegistryBuildsManagerForScheme) {
  const auto mgr = make_conflict_manager(kernel_, cfg_, /*node=*/0);
  ASSERT_NE(mgr, nullptr);
  EXPECT_EQ(mgr->scheme(), GetParam());
  EXPECT_EQ(mgr->wants_directory_assist(), GetParam() == Scheme::kPuno)
      << "only PUNO runs directory assists";
}

// A reader holds a block; a younger remote writer races it.
TEST_P(SchemeConformance, ReaderWriterRace) {
  auto local = make(0);
  kernel_.run_for(10);
  local.begin(0);
  local.on_access(0x40, /*write=*/false, 1);

  auto remote = make(1);
  kernel_.run_for(10);
  remote.begin(0);

  const ConflictVerdict v =
      local.on_remote_request(0x40, /*write=*/true, remote.current_ts(),
                              /*requester=*/1, /*u_bit=*/false);
  expect_verdict_consistent(v, local);
  // One transaction, one outcome: commit iff it survived.
  if (!local.aborted()) local.commit();
  EXPECT_EQ(stat("htm.commits") + stat("htm.aborts"), 1u)
      << "a txn is never both committed and aborted";
  expect_abort_causes_populated();
}

// Write-write race, driven from both sides: an older writer's request must
// win against the local transaction under every scheme; a younger writer's
// fate is scheme-dependent but must stay consistent with the verdict.
TEST_P(SchemeConformance, WriteWriteRace) {
  auto older = make(0);
  kernel_.run_for(10);
  older.begin(0);
  older.on_access(0x80, /*write=*/true, 1);

  auto younger = make(1);
  kernel_.run_for(10);
  younger.begin(0);
  younger.on_access(0x80, /*write=*/true, 2);

  // Older requester vs younger holder: every scheme aborts the holder
  // (legacy/limited by timestamp order, requester-wins unconditionally).
  const ConflictVerdict at_younger = younger.on_remote_request(
      0x80, /*write=*/true, older.current_ts(), /*requester=*/0, false);
  EXPECT_EQ(at_younger.decision, ConflictDecision::kGrantAfterAbort);
  EXPECT_TRUE(younger.aborted());

  // Younger requester vs older holder: scheme-dependent, but consistent.
  const ConflictVerdict at_older = older.on_remote_request(
      0x80, /*write=*/true, younger.current_ts(), /*requester=*/1, false);
  expect_verdict_consistent(at_older, older);

  if (!older.aborted()) older.commit();
  EXPECT_EQ(stat("htm.commits") + stat("htm.aborts"), 2u)
      << "two transactions, two single outcomes";
  expect_abort_causes_populated();
  EXPECT_EQ(stat("htm.aborts_by_gets"), 0u) << "both requests were writes";
}

// Two transactions hold different blocks and race for each other's: the
// classic NACK-cycle shape. Whatever the scheme decides, the verdicts must
// agree with the states and the accounting must add up.
TEST_P(SchemeConformance, NackCycle) {
  auto a = make(0);
  kernel_.run_for(10);
  a.begin(0);
  a.on_access(0x40, /*write=*/false, 1);

  auto b = make(1);
  kernel_.run_for(10);
  b.begin(0);
  b.on_access(0x80, /*write=*/false, 2);

  const ConflictVerdict at_a = a.on_remote_request(
      0x40, /*write=*/true, b.current_ts(), /*requester=*/1, false);
  expect_verdict_consistent(at_a, a);
  const ConflictVerdict at_b = b.on_remote_request(
      0x80, /*write=*/true, a.current_ts(), /*requester=*/0, false);
  expect_verdict_consistent(at_b, b);

  if (!a.aborted()) a.commit();
  if (!b.aborted()) b.commit();
  EXPECT_EQ(stat("htm.commits") + stat("htm.aborts"), 2u);
  expect_abort_causes_populated();
  if (at_a.decision == ConflictDecision::kNack) {
    EXPECT_LE(at_a.notification,
              std::max<Cycle>(1, a.avg_txn_len()))
        << "a NACK notification never exceeds the estimated txn length";
  }
}

// Overflow self-abort: the transaction aborts itself, with the overflow
// cause populated, and the restart ages it (attempt_aborts grows).
TEST_P(SchemeConformance, SelfAbortOnOverflow) {
  auto t = make(0);
  kernel_.run_for(10);
  t.begin(0);
  t.on_access(0x40, /*write=*/true, 1);
  t.on_overflow_eviction(0x40);
  EXPECT_TRUE(t.aborted());
  EXPECT_EQ(t.attempt_aborts(), 1u);
  EXPECT_EQ(stat("htm.aborts_overflow"), 1u);
  expect_abort_causes_populated();

  t.begin(0);  // retry of the same instance
  EXPECT_FALSE(t.aborted());
  if (uses_fallback_timestamps(GetParam())) {
    EXPECT_NE(t.current_ts(), kInvalidTimestamp);
  }
}

// Both backoff policies are bounded for every scheme, across a growing
// abort count and arbitrary notifications.
TEST_P(SchemeConformance, BackoffBounded) {
  auto t = make(0);
  kernel_.run_for(10);
  // Age the attempt through repeated aborts (an untagged ts-0 requester
  // beats the local transaction under every scheme).
  for (int round = 0; round < 8; ++round) {
    t.begin(0);
    t.on_access(0x40, /*write=*/false, 1);
    const ConflictVerdict v =
        t.on_remote_request(0x40, /*write=*/true, /*ts=*/0,
                            /*requester=*/1, false);
    ASSERT_EQ(v.decision, ConflictDecision::kGrantAfterAbort) << round;
    ASSERT_TRUE(t.aborted());
  }
  EXPECT_EQ(t.attempt_aborts(), 8u);

  const Cycle restart_bound =
      static_cast<Cycle>(cfg_.htm.backoff_slot) * cfg_.htm.backoff_max_slots;
  for (int i = 0; i < 200; ++i) {
    EXPECT_LE(t.restart_backoff(), restart_bound);
  }
  for (const Cycle notification : {Cycle{0}, Cycle{10}, Cycle{1000}}) {
    for (std::uint32_t retries = 0; retries < 5; ++retries) {
      EXPECT_LE(t.retry_backoff(notification, retries),
                std::max<Cycle>(cfg_.htm.fixed_backoff, notification));
    }
  }
}

// Timestamp policy: fresh instances get strictly aging priorities; retries
// never lower the priority (starvation freedom for the time-based schemes,
// fallback-dominance for the tagged ones).
TEST_P(SchemeConformance, TimestampsAgeAcrossInstances) {
  auto t = make(0);
  kernel_.run_for(10);
  t.begin(0);
  const Timestamp first = t.current_ts();
  t.commit();
  kernel_.run_for(10);
  t.begin(1);
  EXPECT_GT(t.current_ts(), first) << "fresh instances are younger";
  if (uses_fallback_timestamps(GetParam())) {
    EXPECT_NE(t.current_ts() & kSpeculativeTsBit, 0u)
        << "fresh attempts start speculative (tagged)";
  } else {
    EXPECT_EQ(t.current_ts() & kSpeculativeTsBit, 0u)
        << "legacy schemes never tag timestamps";
  }
  // A retry must not lower the priority (raise the timestamp).
  t.on_access(0x40, false, 1);
  (void)t.on_remote_request(0x40, true, 0, 1, false);
  ASSERT_TRUE(t.aborted());
  const Timestamp before_retry = t.current_ts();
  t.begin(1);
  EXPECT_LE(t.current_ts(), before_retry);
}

// LimitedSet specifics: exceeding the architectural write-set capacity
// aborts with the overflow cause, and the retry runs serialized (untagged
// timestamp, unbounded sets).
TEST_P(SchemeConformance, LimitedSetCapacityAbortsAndSerializes) {
  if (GetParam() != Scheme::kLimitedSet) GTEST_SKIP();
  cfg_.htm.limited_write_entries = 4;
  cfg_.htm.limited_read_entries = 8;
  auto t = make(0);
  kernel_.run_for(10);
  t.begin(0);
  for (Addr a = 0; !t.aborted(); a += 0x40) {
    ASSERT_LT(a, 0x40 * 16u) << "capacity abort must fire within the bound";
    t.on_access(a, /*write=*/true, 1);
  }
  EXPECT_EQ(stat("htm.aborts_overflow"), 1u);
  EXPECT_EQ(stat("htm.set_capacity_overflows"), 1u);

  t.begin(0);  // serialized retry
  EXPECT_EQ(t.current_ts() & kSpeculativeTsBit, 0u) << "retry is untagged";
  for (Addr a = 0; a < 0x40 * 32u; a += 0x40) {
    t.on_access(a, /*write=*/true, 1);
  }
  EXPECT_FALSE(t.aborted()) << "serialized sets are unbounded";
  EXPECT_EQ(t.write_set_size(), 32u);
  t.commit();
}

// RequesterWins specifics: bounded optimism. The attempt enters the
// fallback path after requester_wins_max_retries aborts; a fallback NACKs
// speculative requesters instead of self-aborting.
TEST_P(SchemeConformance, RequesterWinsFallsBackAfterBoundedRetries) {
  if (GetParam() != Scheme::kRequesterWins) GTEST_SKIP();
  auto t = make(0);
  kernel_.run_for(10);
  const Timestamp speculative_req = Timestamp{5} | kSpeculativeTsBit;
  for (std::uint32_t round = 0; round < cfg_.htm.requester_wins_max_retries;
       ++round) {
    t.begin(0);
    EXPECT_NE(t.current_ts() & kSpeculativeTsBit, 0u) << "still speculative";
    t.on_access(0x40, /*write=*/false, 1);
    const ConflictVerdict v =
        t.on_remote_request(0x40, true, speculative_req, 1, false);
    ASSERT_EQ(v.decision, ConflictDecision::kGrantAfterAbort)
        << "speculative attempts always yield to the requester";
  }
  t.begin(0);  // exceeds the retry bound: fallback
  EXPECT_EQ(t.current_ts() & kSpeculativeTsBit, 0u) << "fallback is untagged";
  EXPECT_EQ(stat("htm.fallback_entries"), 1u);
  t.on_access(0x40, /*write=*/false, 1);
  const ConflictVerdict v =
      t.on_remote_request(0x40, true, speculative_req, 1, false);
  EXPECT_EQ(v.decision, ConflictDecision::kNack)
      << "a fallback NACKs speculative requesters";
  EXPECT_FALSE(t.aborted());
  t.commit();
  EXPECT_EQ(stat("htm.commits"), 1u);
}

// Full-system anchor: every scheme completes a small contended STAMP
// profile, commits exactly the per-node quota, and keeps the protocol
// invariant oracle clean.
TEST_P(SchemeConformance, FullSystemRunCompletesWithInvariantsClean) {
  testing::CmpHarness::Options opts;
  opts.workload = "intruder";
  opts.scheme = GetParam();
  opts.seed = 11;
  opts.scale = 0.05;
  opts.attach_checker = true;
  testing::CmpHarness h(opts);
  ASSERT_TRUE(h.run()) << "did not drain under " << to_string(GetParam());
  h.expect_invariants_clean();
  EXPECT_EQ(h.cmp().kernel().stats().counter("htm.commits").value(),
            static_cast<std::uint64_t>(h.quota()) * h.cfg().num_nodes);
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredSchemes, SchemeConformance,
                         ::testing::ValuesIn(kAllSchemes),
                         [](const auto& p) {
                           switch (p.param) {
                             case Scheme::kBaseline: return "Baseline";
                             case Scheme::kRandomBackoff: return "Backoff";
                             case Scheme::kRmwPred: return "RmwPred";
                             case Scheme::kPuno: return "Puno";
                             case Scheme::kRequesterWins:
                               return "RequesterWins";
                             case Scheme::kLimitedSet: return "LimitedSet";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace puno::htm

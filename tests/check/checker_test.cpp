// Unit tests for the protocol invariant oracle: every invariant is
// exercised both ways — clean protocol activity must not trip it, and a
// seeded corruption of exactly the state it guards must.
#include <gtest/gtest.h>

#include <string>

#include "check/invariant_checker.hpp"
#include "../support/fixture.hpp"

namespace puno::check {
namespace {

using coherence::node_bit;

class CheckerFixture : public puno::testing::ProtocolFixture {
 protected:
  explicit CheckerFixture(SystemConfig cfg = {})
      : ProtocolFixture(std::move(cfg)) {
    wire_checker(CheckerConfig{});
  }

  void wire_checker(CheckerConfig ccfg) {
    checker_ = std::make_unique<InvariantChecker>(cmp_, ccfg);
  }

  void check() { checker_->check_now(kernel_.now()); }

  /// The first violation, which the seeded-corruption tests inspect.
  [[nodiscard]] const Violation& first() const {
    EXPECT_FALSE(checker_->clean());
    static const Violation kNone{};
    return checker_->clean() ? kNone : checker_->violations().front();
  }

  std::unique_ptr<InvariantChecker> checker_;
};

class PunoCheckerFixture : public CheckerFixture {
 protected:
  PunoCheckerFixture() : CheckerFixture(puno_config()) {}
  static SystemConfig puno_config() {
    SystemConfig cfg;
    cfg.scheme = Scheme::kPuno;
    return cfg;
  }
};

TEST_F(CheckerFixture, CleanProtocolActivityReportsNothing) {
  // Shared readers, an exclusive writer, an upgrade, and an eviction-heavy
  // pattern: the usual protocol shapes must all verify clean.
  ASSERT_TRUE(do_load(1, 0x1000));
  ASSERT_TRUE(do_load(2, 0x1000));
  ASSERT_TRUE(do_store(3, 0x2000));
  ASSERT_TRUE(do_store(1, 0x1000));  // upgrade with sharer invalidation
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(do_load(0, 0x10000 + static_cast<Addr>(i) * 0x1000));
  }
  check();
  for (const auto& v : checker_->violations()) {
    ADD_FAILURE() << format_violation(v);
  }
}

TEST_F(CheckerFixture, InstalledHookSweepsAtTheConfiguredStride) {
  CheckerConfig ccfg;
  ccfg.stride = 4;
  checker_ = InvariantChecker::attach(cmp_, ccfg);
  run(16);
  // Cycles 0,4,8,12 (the hook fires before now advances past 15).
  EXPECT_EQ(checker_->sweeps(), 4u);
  EXPECT_TRUE(checker_->clean());
}

TEST_F(CheckerFixture, DirStateCorruptionDetected) {
  ASSERT_TRUE(do_load(1, 0x1000));  // node 1 gets 0x1000 exclusive (E)
  auto* e = dirs_[cfg_.home_of(0x1000)]->mutable_entry_for_test(0x1000);
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->state, coherence::Directory::DirState::kEM);
  e->sharers.add(5);  // EM must have an empty sharer list
  check();
  const Violation& v = first();
  EXPECT_EQ(v.id, InvariantId::kDirState);
  EXPECT_EQ(v.addr, 0x1000u);
  EXPECT_EQ(v.node, cfg_.home_of(0x1000));
}

TEST_F(CheckerFixture, DirL1OwnerMismatchDetected) {
  ASSERT_TRUE(do_store(2, 0x3000));  // node 2 owns 0x3000 in M
  // A buggy protocol drops the line from the owner's cache without a PutX.
  l1s_[2]->corrupt_invalidate_for_test(0x3000);
  check();
  const Violation& v = first();
  EXPECT_EQ(v.id, InvariantId::kDirL1);
  EXPECT_EQ(v.addr, 0x3000u);
}

TEST_F(CheckerFixture, DirL1MissingSharerDetected) {
  ASSERT_TRUE(do_load(1, 0x4000));
  ASSERT_TRUE(do_load(2, 0x4000));  // line settles in S at both
  auto* e = dirs_[cfg_.home_of(0x4000)]->mutable_entry_for_test(0x4000);
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->state, coherence::Directory::DirState::kS);
  e->sharers.remove(1);  // stale-inclusivity violated: real sharer lost
  check();
  const Violation& v = first();
  EXPECT_EQ(v.id, InvariantId::kDirL1);
  EXPECT_EQ(v.node, 1u);
  EXPECT_EQ(v.addr, 0x4000u);
}

TEST_F(PunoCheckerFixture, StaleUdPointerDetected) {
  ASSERT_TRUE(do_load(1, 0x5000));
  ASSERT_TRUE(do_load(2, 0x5000));
  auto* e = dirs_[cfg_.home_of(0x5000)]->mutable_entry_for_test(0x5000);
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->state, coherence::Directory::DirState::kS);
  e->ud = 7;  // node 7 never touched the line
  ASSERT_FALSE(e->sharers.contains(7));
  check();
  const Violation& v = first();
  EXPECT_EQ(v.id, InvariantId::kUdPointer);
  EXPECT_EQ(v.addr, 0x5000u);
  // The report names the invariant, cycle and home node for the repro.
  const std::string line = format_violation(v);
  EXPECT_NE(line.find("UD-POINTER"), std::string::npos);
  EXPECT_NE(line.find("cycle"), std::string::npos);
}

TEST_F(CheckerFixture, UnpinnedTransactionalLineDetected) {
  // Scope to TXN-PIN: dropping a cached line also (correctly) breaks the
  // DIR-L1 agreement, which is covered by its own test above.
  CheckerConfig ccfg = CheckerConfig::none();
  ccfg.txn_pin = true;
  wire_checker(ccfg);
  txns_[3]->begin(0);
  ASSERT_TRUE(do_load(3, 0x6000, /*transactional=*/true));
  ASSERT_TRUE(do_store(3, 0x7000, /*transactional=*/true));
  check();
  EXPECT_TRUE(checker_->clean());  // pinned sets are fine
  // A (hypothetical) replacement bug silently evicts a read-set line.
  l1s_[3]->corrupt_invalidate_for_test(0x6000);
  check();
  const Violation& v = first();
  EXPECT_EQ(v.id, InvariantId::kTxnPin);
  EXPECT_EQ(v.node, 3u);
  EXPECT_EQ(v.addr, 0x6000u);
  txns_[3]->commit();
}

TEST_F(CheckerFixture, WriteSetLineNotInMDetected) {
  txns_[4]->begin(0);
  ASSERT_TRUE(do_store(4, 0x8000, /*transactional=*/true));
  auto* e = dirs_[cfg_.home_of(0x8000)]->mutable_entry_for_test(0x8000);
  ASSERT_NE(e, nullptr);
  // Corrupt the L1 copy away entirely: write set says M, cache says gone.
  l1s_[4]->corrupt_invalidate_for_test(0x8000);
  check();
  bool found = false;
  for (const auto& v : checker_->violations()) {
    if (v.id == InvariantId::kTxnPin && v.addr == 0x8000u) found = true;
  }
  EXPECT_TRUE(found);
  txns_[4]->commit();
}

TEST_F(CheckerFixture, DroppedFlitBreaksConservation) {
  // Launch a cross-tile miss, advance until some flit is buffered in a
  // router, and make it vanish — as a flow-control bug would.
  auto done = async_load(0, 0x9000 + 0x40, /*transactional=*/false);
  bool dropped = false;
  for (int i = 0; i < 200 && !dropped; ++i) {
    run(1);
    dropped = mesh_->corrupt_drop_flit_for_test();
  }
  ASSERT_TRUE(dropped) << "no flit ever occupied a router buffer";
  check();
  const Violation& v = first();
  EXPECT_EQ(v.id, InvariantId::kNocConservation);
  EXPECT_NE(v.detail.find("injected"), std::string::npos);
}

TEST_F(CheckerFixture, DroppedSingleFlitPacketLeavesALiveArenaSlot) {
  // A request is one flit, so dropping it drops the packet's tail: the
  // destination NI never delivers it or frees its arena slot, and the
  // drained mesh still holds a live packet.
  auto done = async_load(0, 0x9000 + 0x40, /*transactional=*/false);
  bool dropped = false;
  for (int i = 0; i < 200 && !dropped; ++i) {
    run(1);
    dropped = mesh_->corrupt_drop_flit_for_test();
  }
  ASSERT_TRUE(dropped) << "no flit ever occupied a router buffer";
  kernel_.run_until([&] { return mesh_->idle(); }, 1000);
  ASSERT_TRUE(mesh_->idle());
  EXPECT_FALSE(*done) << "the lost request cannot complete";
  check();
  bool arena = false;
  for (const auto& v : checker_->violations()) {
    if (v.id == InvariantId::kNocConservation &&
        v.detail.find("1 packet(s) still live in the packet arena") !=
            std::string::npos) {
      arena = true;
    }
  }
  EXPECT_TRUE(arena) << "the drain check must report the live arena slot";
}

TEST_F(CheckerFixture, DisabledInvariantStaysSilent) {
  CheckerConfig ccfg;
  ccfg.dir_state = false;
  wire_checker(ccfg);
  ASSERT_TRUE(do_load(1, 0xa000));
  auto* e = dirs_[cfg_.home_of(0xa000)]->mutable_entry_for_test(0xa000);
  ASSERT_NE(e, nullptr);
  e->sharers.add(9);  // would trip DIR-STATE if it were enabled
  check();
  for (const auto& v : checker_->violations()) {
    EXPECT_NE(v.id, InvariantId::kDirState) << format_violation(v);
  }
}

TEST_F(CheckerFixture, ViolationRecordingIsCapped) {
  CheckerConfig ccfg;
  ccfg.max_violations = 3;
  wire_checker(ccfg);
  ASSERT_TRUE(do_load(1, 0xb000));
  for (int i = 0; i < 8; ++i) {
    const Addr a = 0xc000 + static_cast<Addr>(i) * 0x400;
    ASSERT_TRUE(do_load(2, a));
    auto* e = dirs_[cfg_.home_of(a)]->mutable_entry_for_test(a);
    ASSERT_NE(e, nullptr);
    e->sharers.add(1);  // corrupt EM entries en masse
    e->sharers.add(2);
  }
  check();
  EXPECT_EQ(checker_->violations().size(), 3u);
}

}  // namespace
}  // namespace puno::check

// Parameterized sweeps over the PUNO hardware-structure capacities: the
// structures must behave identically in kind (only in degree) at any size.
#include <gtest/gtest.h>

#include "htm/txlb.hpp"
#include "puno/pbuffer.hpp"
#include "sim/rng.hpp"

namespace puno {
namespace {

class TxLBCapacity : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TxLBCapacity, NeverExceedsCapacity) {
  htm::TxLB t(GetParam());
  sim::Rng rng(1, GetParam());
  for (int i = 0; i < 500; ++i) {
    t.on_commit(static_cast<StaticTxId>(rng.next_below(100)),
                rng.next_range(10, 1000));
    ASSERT_LE(t.size(), GetParam());
  }
}

TEST_P(TxLBCapacity, HotEntriesSurviveEvictionPressure) {
  htm::TxLB t(GetParam());
  // Entry 0 is refreshed between every burst of one-shot entries.
  for (StaticTxId burst = 1; burst < 200; ++burst) {
    t.on_commit(0, 100);
    t.on_commit(burst + 1000, 50);
  }
  if (GetParam() >= 2) {
    EXPECT_NE(t.estimate(0), 0u) << "the constantly-updated entry survives";
  } else {
    // A single-entry buffer degenerates to last-write-wins.
    EXPECT_NE(t.estimate(199 + 1000), 0u);
  }
}

TEST_P(TxLBCapacity, EstimatesStayPositiveAndBounded) {
  htm::TxLB t(GetParam());
  sim::Rng rng(3, GetParam());
  for (int i = 0; i < 300; ++i) {
    const auto id = static_cast<StaticTxId>(rng.next_below(8));
    t.on_commit(id, rng.next_range(100, 200));
    const Cycle est = t.estimate(id);
    ASSERT_GE(est, 50u);
    ASSERT_LE(est, 400u) << "formula (1) cannot escape the sample range";
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, TxLBCapacity,
                         ::testing::Values(1u, 2u, 8u, 32u, 128u),
                         [](const auto& p) {
                           return std::string("cap").append(
                               std::to_string(p.param));
                         });

class PBufferSize : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PBufferSize, ValidityLifecycleHoldsAtAnySize) {
  core::PBuffer pb(GetParam());
  for (NodeId n = 0; n < GetParam(); ++n) {
    pb.update(n, n + 1);
    ASSERT_TRUE(pb.usable(n));
  }
  pb.on_timeout();
  for (NodeId n = 0; n < GetParam(); ++n) ASSERT_FALSE(pb.usable(n));
  // A refresh revives any entry.
  pb.update(0, 99);
  EXPECT_TRUE(pb.usable(0));
}

TEST_P(PBufferSize, InvalidationIsIndependentPerEntry) {
  core::PBuffer pb(GetParam());
  for (NodeId n = 0; n < GetParam(); ++n) pb.update(n, n + 1);
  pb.invalidate(0);
  EXPECT_FALSE(pb.usable(0));
  for (NodeId n = 1; n < GetParam(); ++n) ASSERT_TRUE(pb.usable(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PBufferSize,
                         ::testing::Values(1u, 4u, 16u, 64u),
                         [](const auto& p) {
                           return std::string("n").append(
                               std::to_string(p.param));
                         });

}  // namespace
}  // namespace puno

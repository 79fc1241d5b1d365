// Property tests: HTM isolation invariants checked continuously while full
// workloads run, parameterized over every (workload, scheme) combination —
// with the protocol invariant oracle (src/check) attached, so every run also
// re-verifies directory/L1/UD/pinning/NoC consistency as it executes.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <tuple>

#include "arch/cmp.hpp"
#include "../support/fixture.hpp"

namespace puno::arch {
namespace {

using Param = std::tuple<std::string, Scheme>;

class InvariantTest : public ::testing::TestWithParam<Param> {
 protected:
  [[nodiscard]] puno::testing::CmpHarness::Options options(
      std::uint64_t seed) const {
    puno::testing::CmpHarness::Options opts;
    opts.workload = std::get<0>(GetParam());
    opts.scheme = std::get<1>(GetParam());
    opts.seed = seed;
    opts.attach_checker = true;
    // Coarse stride: the oracle sweeps every machine structure, and this
    // suite runs 48 (workload, scheme) combinations.
    opts.checker.stride = 256;
    return opts;
  }
};

/// The "single-writer, multi-reader" invariant (Section II.B): at any point,
/// a block in one live transaction's write set must not appear in any other
/// live transaction's read or write set.
void check_isolation(Cmp& cmp, const SystemConfig& cfg) {
  for (NodeId w = 0; w < cfg.num_nodes; ++w) {
    const auto& writer = cmp.txn(w);
    if (!writer.in_txn() || writer.aborted()) continue;
    writer.for_each_block([&](BlockAddr block, bool written) {
      if (!written) return;
      for (NodeId o = 0; o < cfg.num_nodes; ++o) {
        if (o == w) continue;
        const auto& other = cmp.txn(o);
        if (!other.in_txn() || other.aborted()) continue;
        ASSERT_FALSE(other.is_txn_line(block))
            << "block " << block << " written by txn on node " << w
            << " and read by live txn on node " << o;
        ASSERT_FALSE(other.in_write_set(block))
            << "block " << block << " in two live write sets (" << w << ", "
            << o << ")";
      }
    });
  }
}

TEST_P(InvariantTest, IsolationHoldsThroughoutExecution) {
  puno::testing::CmpHarness h(options(5));
  Cmp& cmp = h.cmp();

  // Periodic invariant probe woven through the run.
  std::function<void()> probe = [&] {
    check_isolation(cmp, h.cfg());
    if (!cmp.all_done()) cmp.kernel().schedule(50, probe);
  };
  cmp.kernel().schedule(50, probe);

  ASSERT_TRUE(h.run()) << "run must complete within budget";
  EXPECT_TRUE(cmp.mesh().idle());
  h.expect_invariants_clean();
}

TEST_P(InvariantTest, AllCommitsAccountedAndSystemDrains) {
  puno::testing::CmpHarness h(options(9));
  ASSERT_TRUE(h.run());
  EXPECT_EQ(h.cmp().total_committed(),
            static_cast<std::uint64_t>(h.quota()) * h.cfg().num_nodes);
  for (NodeId n = 0; n < h.cfg().num_nodes; ++n) {
    EXPECT_FALSE(h.cmp().l1(n).has_outstanding_miss()) << "node " << n;
    EXPECT_EQ(h.cmp().directory(n).pending_services(), 0u) << "node " << n;
  }
  h.expect_invariants_clean();
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  std::string name =
      std::get<0>(info.param) + "_" + to_string(std::get<1>(info.param));
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsAllSchemes, InvariantTest,
    ::testing::Combine(
        ::testing::Values("bayes", "intruder", "labyrinth", "yada", "genome",
                          "kmeans", "ssca2", "vacation"),
        ::testing::ValuesIn(kAllSchemes)),
    param_name);

}  // namespace
}  // namespace puno::arch

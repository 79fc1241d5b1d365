// Forward-progress properties under pathological contention: the time-based
// conflict-resolution policy (retained timestamps) must guarantee that the
// system never livelocks, even when every core hammers the same block.
#include <gtest/gtest.h>

#include <optional>

#include "arch/cmp.hpp"
#include "workloads/workload.hpp"

namespace puno::arch {
namespace {

/// Worst-case workload: every transaction on every core RMWs the same
/// single block, forever conflicting with everyone.
class SingleBlockWorkload final : public workloads::Workload {
 public:
  explicit SingleBlockWorkload(std::uint32_t per_node) : quota_(per_node) {}
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::optional<workloads::TxnDesc> next(NodeId node) override {
    if (issued_[node] >= quota_) return std::nullopt;
    ++issued_[node];
    workloads::TxnDesc d;
    d.static_id = 0;
    d.pre_think = 5;
    d.post_think = 5;
    d.ops.push_back({false, 0x0, 1, 2});  // load the block
    d.ops.push_back({true, 0x0, 2, 2});   // store it
    return d;
  }

 private:
  std::string name_ = "single-block";
  std::uint32_t quota_;
  std::uint32_t issued_[64] = {};
};

class ProgressTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(ProgressTest, SingleBlockHammerCompletes) {
  SystemConfig cfg;
  cfg.scheme = GetParam();
  cfg.seed = 3;
  SingleBlockWorkload wl(24);
  Cmp cmp(cfg, wl);
  ASSERT_TRUE(cmp.run(20'000'000))
      << "livelock: total serialization must still finish";
  EXPECT_EQ(cmp.total_committed(), 24u * cfg.num_nodes);
}

TEST_P(ProgressTest, CommitCountGrowsMonotonically) {
  SystemConfig cfg;
  cfg.scheme = GetParam();
  cfg.seed = 4;
  SingleBlockWorkload wl(16);
  Cmp cmp(cfg, wl);

  // Probe every 5000 cycles: between consecutive windows at least one new
  // commit must land somewhere (the oldest transaction always wins).
  std::uint64_t last = 0;
  Cycle last_change = 0;
  bool stalled = false;
  std::function<void()> probe = [&] {
    const std::uint64_t now_commits =
        cmp.kernel().stats().counter("htm.commits").value();
    if (now_commits != last) {
      last = now_commits;
      last_change = cmp.kernel().now();
    } else if (cmp.kernel().now() - last_change > 100000 && !cmp.all_done()) {
      stalled = true;
    }
    if (!cmp.all_done()) cmp.kernel().schedule(5000, probe);
  };
  cmp.kernel().schedule(5000, probe);
  ASSERT_TRUE(cmp.run(20'000'000));
  EXPECT_FALSE(stalled) << "no 100k-cycle window without a commit";
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ProgressTest,
                         ::testing::ValuesIn(kAllSchemes),
                         [](const auto& p) {
                           std::string n = to_string(p.param);
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace puno::arch

#include "traffic/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "traffic/engine.hpp"
#include "workloads/stamp.hpp"

namespace puno::traffic::registry {
namespace {

[[nodiscard]] bool contains(const std::vector<std::string>& v,
                            const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

TEST(Registry, ListsStampProfilesFirstThenTrafficKernels) {
  const std::vector<Entry>& all = entries();
  ASSERT_EQ(all.size(), workloads::stamp::benchmark_names().size() + 4);
  // STAMP block first, in stamp order.
  for (std::size_t i = 0; i < workloads::stamp::benchmark_names().size();
       ++i) {
    EXPECT_EQ(all[i].name, workloads::stamp::benchmark_names()[i]);
    EXPECT_FALSE(all[i].open_loop);
    EXPECT_FALSE(all[i].description.empty());
  }
  // Traffic kernels last, flagged open loop.
  for (std::size_t i = workloads::stamp::benchmark_names().size();
       i < all.size(); ++i) {
    EXPECT_TRUE(all[i].open_loop);
    EXPECT_EQ(all[i].name.rfind("traffic-", 0), 0u);
  }
}

TEST(Registry, KnowsEveryNameAndNothingElse) {
  const std::vector<std::string> n = names();
  EXPECT_TRUE(contains(n, "kmeans"));
  EXPECT_TRUE(contains(n, "traffic-map"));
  EXPECT_TRUE(contains(n, "traffic-set"));
  EXPECT_TRUE(contains(n, "traffic-queue"));
  EXPECT_TRUE(contains(n, "traffic-counter"));
  for (const std::string& name : n) EXPECT_TRUE(known(name));
  EXPECT_FALSE(known("traffic-heap"));
  EXPECT_FALSE(known("vacations"));
}

TEST(Registry, IsTrafficSeparatesTheFamilies) {
  EXPECT_TRUE(is_traffic("traffic-queue"));
  EXPECT_FALSE(is_traffic("kmeans"));
  EXPECT_FALSE(is_traffic("traffic-heap"));  // unknown is not traffic
}

TEST(Registry, MakeDispatchesOnFamily) {
  SystemConfig cfg;
  cfg.num_nodes = 4;
  cfg.traffic.arrivals_per_node = 8;

  const auto open = make("traffic-counter", cfg);
  ASSERT_NE(dynamic_cast<OpenLoopWorkload*>(open.get()), nullptr);
  EXPECT_EQ(dynamic_cast<OpenLoopWorkload*>(open.get())->kind(),
            KernelKind::kCounter);

  const auto closed = make("kmeans", cfg, 0.05);
  ASSERT_NE(closed, nullptr);
  EXPECT_EQ(dynamic_cast<OpenLoopWorkload*>(closed.get()), nullptr);
}

TEST(Registry, MakeAppliesScaleToTrafficQuota) {
  SystemConfig cfg;
  cfg.num_nodes = 2;
  cfg.traffic.arrivals_per_node = 100;
  const auto wl = make("traffic-map", cfg, 0.25);
  ASSERT_NE(dynamic_cast<OpenLoopWorkload*>(wl.get()), nullptr);
  EXPECT_EQ(dynamic_cast<OpenLoopWorkload*>(wl.get())->quota(), 25u);
}

TEST(Registry, MakeThrowsOnUnknownName) {
  SystemConfig cfg;
  EXPECT_THROW((void)make("traffic-heap", cfg), std::invalid_argument);
  EXPECT_THROW((void)make("", cfg), std::invalid_argument);
}

// One rule for both families: the STAMP profiles once wrapped lround(-N)
// to a quota near 2^32 while the traffic engine silently used 1.0.
TEST(Registry, MakeRejectsNonPositiveOrNonFiniteScale) {
  SystemConfig cfg;
  cfg.num_nodes = 4;
  for (const char* name : {"kmeans", "traffic-map"}) {
    for (const double bad : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
      EXPECT_THROW((void)make(name, cfg, bad), std::invalid_argument)
          << name << " scale " << bad;
    }
    EXPECT_NE(make(name, cfg, 0.05), nullptr) << name;
  }
}

}  // namespace
}  // namespace puno::traffic::registry

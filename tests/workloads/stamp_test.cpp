#include "workloads/stamp.hpp"

#include <gtest/gtest.h>

#include "sim/config.hpp"

namespace puno::workloads::stamp {
namespace {

TEST(Stamp, AllEightBenchmarksExist) {
  EXPECT_EQ(benchmark_names().size(), 8u);
  for (const auto& name : benchmark_names()) {
    EXPECT_NO_THROW({
      auto spec = make_spec(name);
      EXPECT_EQ(spec.name, name);
      EXPECT_FALSE(spec.txns.empty());
      EXPECT_GT(spec.txns_per_node, 0u);
    });
  }
}

TEST(Stamp, UnknownBenchmarkThrows) {
  EXPECT_THROW(make_spec("quicksort"), std::invalid_argument);
  EXPECT_THROW(input_parameters("quicksort"), std::invalid_argument);
  EXPECT_THROW((void)paper_abort_rate("quicksort"), std::invalid_argument);
}

TEST(Stamp, HighContentionSubsetMatchesPaper) {
  // Section IV: bayes, intruder, labyrinth, yada are the high-contention set
  EXPECT_TRUE(is_high_contention("bayes"));
  EXPECT_TRUE(is_high_contention("intruder"));
  EXPECT_TRUE(is_high_contention("labyrinth"));
  EXPECT_TRUE(is_high_contention("yada"));
  EXPECT_FALSE(is_high_contention("genome"));
  EXPECT_FALSE(is_high_contention("kmeans"));
  EXPECT_FALSE(is_high_contention("ssca2"));
  EXPECT_FALSE(is_high_contention("vacation"));
}

TEST(Stamp, PaperAbortRatesAreTableI) {
  EXPECT_DOUBLE_EQ(paper_abort_rate("bayes"), 0.971);
  EXPECT_DOUBLE_EQ(paper_abort_rate("labyrinth"), 0.986);
  EXPECT_DOUBLE_EQ(paper_abort_rate("ssca2"), 0.003);
}

TEST(Stamp, InputParametersMatchTableI) {
  EXPECT_EQ(input_parameters("labyrinth"), "32*32*3 maze, 96 paths");
  EXPECT_EQ(input_parameters("yada"), "1264 elements, min-angle 20");
}

TEST(Stamp, ScaleMultipliesQuota) {
  const auto base = make_spec("vacation", 1.0);
  const auto doubled = make_spec("vacation", 2.0);
  EXPECT_EQ(doubled.txns_per_node, base.txns_per_node * 2);
  const auto tiny = make_spec("vacation", 0.0001);
  EXPECT_EQ(tiny.txns_per_node, 1u) << "scale never rounds to zero";
}

TEST(Stamp, BayesHasLargestStaticTxnCount) {
  // Section III.D: bayes has the most static transactions in STAMP (15).
  const auto bayes = make_spec("bayes");
  EXPECT_EQ(bayes.txns.size(), 15u);
  for (const auto& name : benchmark_names()) {
    EXPECT_LE(make_spec(name).txns.size(), bayes.txns.size());
  }
}

TEST(Stamp, StaticTxnCountsFitTheTxLB) {
  SystemConfig cfg;
  for (const auto& name : benchmark_names()) {
    EXPECT_LE(make_spec(name).txns.size(), cfg.puno.txlb_entries);
  }
}

TEST(Stamp, HighContentionProfilesAreHotter) {
  // Structural sanity: the high-contention kernels concentrate far more of
  // their writes on the hot region than the low-contention ones.
  auto hotness = [](const SyntheticSpec& s) {
    double acc = 0;
    for (const auto& t : s.txns) acc += t.hot_write_frac * t.weight;
    return acc;
  };
  EXPECT_GT(hotness(make_spec("bayes")), hotness(make_spec("genome")));
  EXPECT_GT(hotness(make_spec("labyrinth")), hotness(make_spec("ssca2")));
}

TEST(Stamp, MakeBuildsWorkload) {
  auto w = make("kmeans", 16, 42);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->name(), "kmeans");
  EXPECT_TRUE(w->next(0).has_value());
}

TEST(Stamp, KmeansIsRmwHeavy) {
  const auto spec = make_spec("kmeans");
  EXPECT_GE(spec.txns[0].rmw_frac, 0.9);
}

TEST(Stamp, LabyrinthScansTheGrid) {
  const auto spec = make_spec("labyrinth");
  bool scans = false;
  for (const auto& t : spec.txns) scans |= t.scan_hot;
  EXPECT_TRUE(scans);
}

}  // namespace
}  // namespace puno::workloads::stamp

#include "workloads/analysis.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "workloads/stamp.hpp"
#include "workloads/trace.hpp"

namespace puno::workloads {
namespace {

constexpr const char* kTrace = R"(trace-v1 t
txn 0 0 pre=10 post=10
r 0 pc=1 think=2
r 64 pc=2 think=2
w 0 pc=3 think=2
end
txn 1 1 pre=0 post=0
r 0 pc=4 think=0
end
)";

TraceWorkload tiny() {
  return TraceWorkload(std::make_unique<std::istringstream>(kTrace), 2);
}

TEST(WorkloadAnalysis, CountsTxnsSitesAndOps) {
  auto w = tiny();
  const WorkloadProfile p = analyze(w, 2);
  EXPECT_EQ(p.name, "t");
  EXPECT_EQ(p.total_txns, 2u);
  EXPECT_EQ(p.static_txns, 2u);
  EXPECT_DOUBLE_EQ(p.avg_ops_per_txn, 2.0);
  EXPECT_DOUBLE_EQ(p.avg_reads_per_txn, 1.5);
  EXPECT_DOUBLE_EQ(p.avg_writes_per_txn, 0.5);
  EXPECT_DOUBLE_EQ(p.max_ops_in_txn, 3.0);
}

TEST(WorkloadAnalysis, FootprintAndConcentration) {
  auto w = tiny();
  const WorkloadProfile p = analyze(w, 2);
  EXPECT_EQ(p.footprint_blocks, 2u);  // blocks 0 and 64
  // Block 0 gets 3 of 4 accesses.
  EXPECT_DOUBLE_EQ(p.hottest_block_share, 0.75);
  EXPECT_DOUBLE_EQ(p.top16_access_share, 1.0);
}

TEST(WorkloadAnalysis, SharingMetrics) {
  auto w = tiny();
  const WorkloadProfile p = analyze(w, 2);
  // Block 0 touched by both nodes (degree 2), block 64 by one (degree 1).
  EXPECT_DOUBLE_EQ(p.avg_sharing_degree, 1.5);
  // Block 0 is written by node 0 and read by node 1: write-shared; block 64
  // is private.
  EXPECT_DOUBLE_EQ(p.write_shared_fraction, 0.5);
}

TEST(WorkloadAnalysis, ThinkAccounting) {
  auto w = tiny();
  const WorkloadProfile p = analyze(w, 2);
  // txn0: 10+10 + (2+2+2) = 26; txn1: 0. Mean 13.
  EXPECT_DOUBLE_EQ(p.avg_think_per_txn, 13.0);
}

TEST(WorkloadAnalysis, EmptyWorkloadYieldsZeros) {
  TraceWorkload w(std::make_unique<std::istringstream>("trace-v1 empty\n"),
                  4);
  const WorkloadProfile p = analyze(w, 4);
  EXPECT_EQ(p.total_txns, 0u);
  EXPECT_EQ(p.footprint_blocks, 0u);
  EXPECT_DOUBLE_EQ(p.avg_ops_per_txn, 0.0);
}

TEST(WorkloadAnalysis, PerNodeCapRespected) {
  auto w = stamp::make("kmeans", 4, 1, 1.0);
  const WorkloadProfile p = analyze(*w, 4, /*max_per_node=*/5);
  EXPECT_EQ(p.total_txns, 20u);
}

TEST(WorkloadAnalysis, HighContentionProfilesShareMoreWrites) {
  auto hot = stamp::make("intruder", 16, 1, 0.3);
  auto cold = stamp::make("ssca2", 16, 1, 0.3);
  const WorkloadProfile ph = analyze(*hot, 16);
  const WorkloadProfile pc = analyze(*cold, 16);
  EXPECT_GT(ph.top16_access_share, pc.top16_access_share)
      << "intruder concentrates on queue blocks; ssca2 scatters";
  EXPECT_GT(ph.avg_sharing_degree, pc.avg_sharing_degree);
}

TEST(WorkloadAnalysis, StaticTxnCountsMatchSpecs) {
  for (const auto& name : stamp::benchmark_names()) {
    auto w = stamp::make(name, 16, 1, 0.5);
    const auto spec_sites = stamp::make_spec(name).txns.size();
    const WorkloadProfile p = analyze(*w, 16);
    EXPECT_LE(p.static_txns, spec_sites) << name;
    EXPECT_GE(p.static_txns, 1u) << name;
  }
}

TEST(WorkloadAnalysis, SummaryMentionsKeyNumbers) {
  auto w = tiny();
  const WorkloadProfile p = analyze(w, 2);
  const std::string s = summarize(p);
  EXPECT_NE(s.find("t:"), std::string::npos);
  EXPECT_NE(s.find("2 txns"), std::string::npos);
  EXPECT_NE(s.find("2 sites"), std::string::npos);
}

}  // namespace
}  // namespace puno::workloads

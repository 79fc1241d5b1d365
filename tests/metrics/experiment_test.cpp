#include "metrics/experiment.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "arch/cmp.hpp"
#include "metrics/stats_io.hpp"
#include "traffic/registry.hpp"
#include "workloads/trace.hpp"

namespace puno::metrics {
namespace {

struct RunBytes {
  std::string result_jsonl;  ///< With `workload` blanked: replays rename it.
  std::string stats_csv;
};

[[nodiscard]] RunBytes run_bytes(Experiment& exp) {
  RunResult r = exp.run();
  r.workload.clear();
  std::ostringstream jsonl;
  std::ostringstream csv;
  write_result_jsonl(r, jsonl);
  write_stats_csv(exp.cmp().kernel().stats(), csv);
  return {jsonl.str(), csv.str()};
}

TEST(Experiment, ReplaysRunLikeTheRecordedWorkload) {
  // kmeans from the registry and from its recording: one simulation, two
  // workload sources.
  ExperimentParams p;
  p.workload = "kmeans";
  p.scale = 0.05;
  const SystemConfig cfg = p.config();
  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "experiment-kmeans.trace")
          .string();
  {
    const auto source = traffic::registry::make(p.workload, cfg, p.scale);
    std::ofstream out(path, std::ios::trunc);
    workloads::TraceWorkload::record(*source, cfg.num_nodes, out);
    ASSERT_TRUE(out.good());
  }

  Experiment from_registry(p);
  const RunBytes expected = run_bytes(from_registry);
  EXPECT_NE(expected.result_jsonl.find("\"completed\":true"),
            std::string::npos);

  ExperimentParams replay = p;
  replay.workload = "kmeans (replay)";
  const auto nodes = static_cast<NodeId>(cfg.num_nodes);
  Experiment replayed(replay, std::make_unique<workloads::TraceWorkload>(
                                  workloads::TraceWorkload::open(path, nodes)));
  const RunBytes from_trace = run_bytes(replayed);
  EXPECT_EQ(from_trace.result_jsonl, expected.result_jsonl);
  EXPECT_EQ(from_trace.stats_csv, expected.stats_csv);

  std::filesystem::remove(path);
}

}  // namespace
}  // namespace puno::metrics

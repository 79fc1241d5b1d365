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
#include "traffic/stream_trace.hpp"
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
  // kmeans from the registry, from its recording loaded whole, and from
  // the same recording streamed: one simulation, three workload sources.
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
  Experiment loaded(replay, std::make_unique<workloads::TraceWorkload>(
                                workloads::TraceWorkload::load(path)));
  const RunBytes from_load = run_bytes(loaded);
  EXPECT_EQ(from_load.result_jsonl, expected.result_jsonl);
  EXPECT_EQ(from_load.stats_csv, expected.stats_csv);

  replay.workload = "kmeans (stream-replay)";
  Experiment streamed(replay, std::make_unique<traffic::StreamTraceWorkload>(
                                  path, static_cast<NodeId>(cfg.num_nodes)));
  const RunBytes from_stream = run_bytes(streamed);
  EXPECT_EQ(from_stream.result_jsonl, expected.result_jsonl);
  EXPECT_EQ(from_stream.stats_csv, expected.stats_csv);

  std::filesystem::remove(path);
}

}  // namespace
}  // namespace puno::metrics

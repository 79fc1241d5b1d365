// End-to-end telemetry contracts over real simulations:
//
//   1. Observability: attaching the sampler never changes simulated results
//      (bit-identical RunResult and stats dump with and without telemetry).
//   2. Determinism: the runner produces byte-identical telemetry JSONL no
//      matter how many worker threads execute the sweep.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "arch/cmp.hpp"
#include "metrics/experiment.hpp"
#include "metrics/stats_io.hpp"
#include "runner/runner.hpp"
#include "sim/kernel.hpp"
#include "telemetry/export.hpp"

namespace puno::telemetry {
namespace {

namespace fs = std::filesystem;

metrics::ExperimentParams small_params(Scheme scheme = Scheme::kPuno) {
  metrics::ExperimentParams p;
  p.workload = "kmeans";
  p.scheme = scheme;
  p.seed = 3;
  p.scale = 0.1;
  return p;
}

std::string result_row(const metrics::RunResult& r) {
  std::ostringstream os;
  metrics::write_result_jsonl(r, os);
  return os.str();
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct TempDir {
  fs::path path;
  explicit TempDir(const char* tag)
      : path(fs::temp_directory_path() /
             (std::string("puno-telemetry-test-") + tag)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

/// The run's result and its whole stats dump (write_stats_csv).
std::pair<metrics::RunResult, std::string> run_with_stats(
    const metrics::ExperimentParams& p) {
  metrics::Experiment exp(p);
  const metrics::RunResult r = exp.run();
  std::ostringstream stats;
  metrics::write_stats_csv(exp.cmp().kernel().stats(), stats);
  return {r, stats.str()};
}

TEST(TelemetryIntegration, SamplingDoesNotPerturbResults) {
  for (const Scheme scheme : {Scheme::kBaseline, Scheme::kPuno}) {
    const auto [plain, plain_stats] = run_with_stats(small_params(scheme));

    metrics::ExperimentParams sampled_params = small_params(scheme);
    sampled_params.telemetry.interval = 100;
    sampled_params.telemetry.spatial = true;
    auto [sampled, sampled_stats] = run_with_stats(sampled_params);
    EXPECT_GT(sampled.telemetry_samples, 0u);
    // The sampler reads counters without creating them: a Baseline run has
    // no puno.* counters, sampled or not.
    EXPECT_EQ(sampled_stats, plain_stats)
        << "scheme " << to_string(scheme)
        << ": sampling changed the stats dump";

    // Strip the telemetry bookkeeping: every simulated field must match.
    sampled.telemetry_path.clear();
    sampled.telemetry_samples = 0;
    sampled.telemetry_dropped = 0;
    EXPECT_EQ(result_row(sampled), result_row(plain))
        << "scheme " << to_string(scheme)
        << ": sampling changed simulated results";
  }
}

TEST(TelemetryIntegration, RunnerTelemetryIsThreadCountInvariant) {
  const auto sweep_files = [](unsigned jobs, const TempDir& dir) {
    std::vector<runner::JobSpec> specs;
    for (const Scheme scheme : {Scheme::kBaseline, Scheme::kPuno}) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        runner::JobSpec spec;
        spec.params = small_params(scheme);
        spec.params.seed = seed;
        spec.params.scale = 0.05;
        spec.params.telemetry.interval = 200;
        spec.params.telemetry.jsonl_path =
            (dir.path / (std::string(to_string(scheme)) + "-s" +
                         std::to_string(seed) + ".telemetry.jsonl"))
                .string();
        specs.push_back(std::move(spec));
      }
    }
    runner::RunnerOptions options;
    options.jobs = jobs;
    const runner::SweepResult sweep = runner::run_jobs(specs, options);
    EXPECT_EQ(sweep.failed, 0u);
    std::vector<std::string> bytes;
    for (const runner::JobSpec& spec : specs) {
      bytes.push_back(file_bytes(spec.params.telemetry.jsonl_path));
      EXPECT_FALSE(bytes.back().empty());
    }
    return bytes;
  };

  const TempDir serial_dir("serial");
  const TempDir parallel_dir("parallel");
  const auto serial = sweep_files(1, serial_dir);
  const auto parallel = sweep_files(8, parallel_dir);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i])
        << "telemetry JSONL " << i << " differs across thread counts";
  }
}

TEST(TelemetryIntegration, RunResultRowRoundTripsTelemetryKeys) {
  metrics::RunResult r;
  r.workload = "kmeans";
  r.scheme = Scheme::kPuno;
  r.telemetry_path = "telemetry/kmeans.telemetry.jsonl";
  r.telemetry_samples = 42;
  r.telemetry_dropped = 3;
  metrics::RunResult back;
  ASSERT_TRUE(metrics::read_result_jsonl(result_row(r), back));
  EXPECT_EQ(back.telemetry_path, r.telemetry_path);
  EXPECT_EQ(back.telemetry_samples, 42u);
  EXPECT_EQ(back.telemetry_dropped, 3u);

  metrics::RunResult unsampled;
  unsampled.workload = "kmeans";
  unsampled.scheme = Scheme::kPuno;
  EXPECT_EQ(result_row(unsampled).find("telemetry"), std::string::npos)
      << "unsampled rows carry no telemetry keys";
}

TEST(TelemetryIntegration, ExperimentWritesRequestedFiles) {
  const TempDir dir("files");
  metrics::ExperimentParams p = small_params();
  p.scale = 0.05;
  p.telemetry.interval = 250;
  p.telemetry.jsonl_path = (dir.path / "run.telemetry.jsonl").string();
  p.telemetry.csv_path = (dir.path / "run.telemetry.csv").string();
  p.telemetry.dashboard_path = (dir.path / "run.dashboard.html").string();
  const metrics::RunResult r = metrics::run_experiment(p);

  EXPECT_EQ(r.telemetry_path, p.telemetry.jsonl_path);
  std::vector<TelemetrySample> samples;
  ASSERT_TRUE(
      read_telemetry_jsonl(file_bytes(p.telemetry.jsonl_path), samples));
  EXPECT_EQ(samples.size(), r.telemetry_samples);
  Cycle covered = 0;
  for (const TelemetrySample& s : samples) covered += s.window;
  EXPECT_EQ(covered, r.cycles) << "windows tile the run";
  EXPECT_FALSE(file_bytes(p.telemetry.csv_path).empty());
  const std::string html = file_bytes(p.telemetry.dashboard_path);
  EXPECT_NE(html.find("</html>"), std::string::npos);
}

}  // namespace
}  // namespace puno::telemetry

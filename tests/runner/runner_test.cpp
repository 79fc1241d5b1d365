#include "runner/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/common/bench_util.hpp"
#include "metrics/stats_io.hpp"
#include "runner/aggregate.hpp"
#include "runner/grid.hpp"
#include "workloads/stamp.hpp"

namespace puno::runner {
namespace {

using metrics::RunResult;

// Tiny real-simulation grid: 2 workloads x 2 schemes x 2 seeds at 5% scale.
[[nodiscard]] std::vector<JobSpec> tiny_grid() {
  GridSpec grid;
  grid.workloads = {"kmeans", "ssca2"};
  grid.schemes = {Scheme::kBaseline, Scheme::kPuno};
  grid.seeds = {1, 2};
  grid.scale = 0.05;
  return expand_grid(grid);
}

[[nodiscard]] std::string results_csv(const SweepResult& sweep) {
  std::vector<RunResult> results;
  results.reserve(sweep.outcomes.size());
  for (const JobOutcome& o : sweep.outcomes) results.push_back(o.result);
  std::ostringstream out;
  metrics::write_results_csv(results, out);
  return out.str();
}

// The central determinism contract: sharding the same specs over 8 worker
// threads must produce byte-identical results, in input order, to a serial
// run. Each simulation owns its kernel/RNG/stats, so the interleaving of
// jobs across threads must be unobservable in the output.
TEST(Runner, ParallelSweepBitIdenticalToSerial) {
  const std::vector<JobSpec> specs = tiny_grid();

  RunnerOptions serial;
  serial.jobs = 1;
  const SweepResult a = run_jobs(specs, serial);

  RunnerOptions parallel;
  parallel.jobs = 8;
  const SweepResult b = run_jobs(specs, parallel);

  ASSERT_EQ(a.outcomes.size(), specs.size());
  ASSERT_EQ(b.outcomes.size(), specs.size());
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(b.failed, 0u);
  EXPECT_EQ(results_csv(a), results_csv(b))
      << "jobs=8 sweep must be byte-identical to jobs=1";
}

TEST(Runner, ResolveJobsPrefersExplicitRequest) {
  EXPECT_EQ(resolve_jobs(3), 3u);
  EXPECT_GE(resolve_jobs(0), 1u);
}

// PUNO_JOBS goes through the checked parser: "4x" once read as 4 and "abc"
// silently fell back to every hardware thread.
TEST(Runner, ResolveJobsRejectsMalformedPunoJobs) {
  const char* old = std::getenv("PUNO_JOBS");
  const std::string saved = old != nullptr ? old : "";
  ::setenv("PUNO_JOBS", "3", 1);
  EXPECT_EQ(resolve_jobs(0), 3u);
  EXPECT_EQ(resolve_jobs(5), 5u) << "an explicit request wins";
  for (const char* bad : {"4x", "abc", "-2", " 4"}) {
    ::setenv("PUNO_JOBS", bad, 1);
    try {
      (void)resolve_jobs(0);
      ADD_FAILURE() << "PUNO_JOBS='" << bad << "' was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("PUNO_JOBS"), std::string::npos)
          << e.what();
    }
  }
  if (old != nullptr) {
    ::setenv("PUNO_JOBS", saved.c_str(), 1);
  } else {
    ::unsetenv("PUNO_JOBS");
  }
}

// A job that throws once is retried and succeeds on the second attempt;
// a job that always throws is reported failed without poisoning siblings.
TEST(Runner, FaultInjectionRetriesThenIsolatesFailures) {
  constexpr std::size_t kJobs = 6;
  constexpr std::size_t kFlaky = 2;   // fails on its first attempt only
  constexpr std::size_t kBroken = 4;  // fails on every attempt

  std::vector<JobSpec> specs(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    specs[i].params.workload = "job" + std::to_string(i);
    specs[i].params.seed = i;
  }

  std::atomic<int> flaky_attempts{0};
  const JobFn fn = [&](const JobSpec& spec) -> RunResult {
    const auto index = spec.params.seed;
    if (index == kFlaky && flaky_attempts.fetch_add(1) == 0) {
      throw std::runtime_error("transient fault");
    }
    if (index == kBroken) {
      throw std::runtime_error("persistent fault");
    }
    RunResult r;
    r.workload = spec.params.workload;
    r.completed = true;
    r.commits = 100 + index;
    return r;
  };

  RunnerOptions options;
  options.jobs = 4;
  const SweepResult sweep = run_jobs(specs, options, fn);

  ASSERT_EQ(sweep.outcomes.size(), kJobs);
  EXPECT_EQ(sweep.failed, 1u);

  const JobOutcome& flaky = sweep.outcomes[kFlaky];
  EXPECT_EQ(flaky.status, JobStatus::kOk);
  EXPECT_EQ(flaky.attempts, 2);
  EXPECT_EQ(flaky.result.commits, 100 + kFlaky);

  const JobOutcome& broken = sweep.outcomes[kBroken];
  EXPECT_EQ(broken.status, JobStatus::kFailed);
  EXPECT_EQ(broken.attempts, 2);
  EXPECT_NE(broken.error.find("persistent fault"), std::string::npos);
  // Failed rows keep their identity so downstream tables stay aligned.
  EXPECT_EQ(broken.result.workload, "job4");
  EXPECT_FALSE(broken.result.completed);

  for (std::size_t i = 0; i < kJobs; ++i) {
    if (i == kBroken) continue;
    EXPECT_EQ(sweep.outcomes[i].status, JobStatus::kOk)
        << "sibling job " << i << " must be unaffected by the failure";
    EXPECT_EQ(sweep.outcomes[i].result.commits, 100 + i);
  }
}

// The wall-clock watchdog catches runaway simulations even when max_cycles
// alone would let them run for minutes.
TEST(Runner, WatchdogKillsRunawayJob) {
  std::vector<JobSpec> specs(1);
  specs[0].params.workload = "intruder";
  specs[0].params.scheme = Scheme::kBaseline;
  specs[0].params.scale = 50.0;  // quota far beyond what 0.05s can simulate
  specs[0].params.max_cycles = 1'000'000'000'000ull;

  RunnerOptions options;
  options.jobs = 1;
  options.watchdog_seconds = 0.05;
  const SweepResult sweep = run_jobs(specs, options);

  ASSERT_EQ(sweep.outcomes.size(), 1u);
  const JobOutcome& o = sweep.outcomes[0];
  EXPECT_EQ(o.status, JobStatus::kFailed);
  EXPECT_NE(o.error.find("watchdog"), std::string::npos) << o.error;
  EXPECT_EQ(o.attempts, 1) << "watchdog expiry must not be retried";
}

TEST(Runner, ManifestHasOneLinePerJob) {
  const std::filesystem::path manifest =
      std::filesystem::path(::testing::TempDir()) / "puno-runner-manifest.jsonl";
  std::filesystem::remove(manifest);

  std::vector<JobSpec> specs(3);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].params.workload = std::string("w").append(std::to_string(i));
  }
  const JobFn fn = [](const JobSpec& spec) {
    RunResult r;
    r.workload = spec.params.workload;
    r.completed = true;
    r.trace_path = spec.params.workload + ".trace.json";
    r.trace_events = 100;
    r.trace_dropped = 3;
    return r;
  };

  RunnerOptions options;
  options.jobs = 2;
  options.manifest_path = manifest.string();
  const SweepResult sweep = run_jobs(specs, options, fn);
  EXPECT_EQ(sweep.failed, 0u);

  // Every trace key the writer emits reads back.
  for (const ManifestRow& row : read_manifest_file(manifest)) {
    EXPECT_EQ(row.trace_path, row.workload + ".trace.json");
    EXPECT_EQ(row.trace_events, 100u);
    EXPECT_EQ(row.trace_dropped, 3u);
  }

  std::ifstream in(manifest);
  ASSERT_TRUE(in.is_open());
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"status\""), std::string::npos);
  }
  EXPECT_EQ(lines, specs.size());
}

// A manifest that cannot be opened fails the sweep before any job runs,
// naming the path; it once ran the whole sweep and wrote nothing.
TEST(Runner, UnwritableManifestFailsBeforeAnyJobRuns) {
  const std::string path = (std::filesystem::path(::testing::TempDir()) /
                            "no-such-dir" / "runs.jsonl")
                               .string();
  std::vector<JobSpec> specs(2);
  std::atomic<int> invocations{0};
  const JobFn fn = [&](const JobSpec&) -> RunResult {
    invocations.fetch_add(1);
    return RunResult{};
  };
  RunnerOptions options;
  options.jobs = 1;
  options.manifest_path = path;
  try {
    (void)run_jobs(specs, options, fn);
    ADD_FAILURE() << "an unwritable manifest was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(invocations.load(), 0) << "no job may run";
}

// A manifest whose rows fail to write (here a full device) is reported
// after the last job, naming the path, and the outcomes survive.
TEST(Runner, ManifestWriteFailureIsReported) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this platform";
  }
  std::vector<JobSpec> specs(3);
  const JobFn fn = [](const JobSpec& spec) {
    RunResult r;
    r.workload = spec.params.workload;
    r.completed = true;
    return r;
  };
  RunnerOptions options;
  options.jobs = 1;
  options.manifest_path = "/dev/full";
  const SweepResult sweep = run_jobs(specs, options, fn);
  EXPECT_EQ(sweep.failed, 0u);
  EXPECT_NE(sweep.manifest_error.find("/dev/full"), std::string::npos)
      << sweep.manifest_error;

  options.manifest_path.clear();
  EXPECT_TRUE(run_jobs(specs, options, fn).manifest_error.empty());
}

// The benches' grid path (bench::run_grid, as table1, fig2 and fig3 call
// it): one row per STAMP benchmark in paper order.
TEST(RunnerSuite, SuiteHasOneRowPerBenchmarkInOrder) {
  const char* old = std::getenv("PUNO_BENCH_SCALE");
  const std::string saved = old != nullptr ? old : "";
  ::setenv("PUNO_BENCH_SCALE", "0.05", 1);
  const bench::SweepGrid grid = bench::run_grid({Scheme::kBaseline}, {1});
  if (old != nullptr) {
    ::setenv("PUNO_BENCH_SCALE", saved.c_str(), 1);
  } else {
    ::unsetenv("PUNO_BENCH_SCALE");
  }
  const auto names = workloads::stamp::benchmark_names();
  ASSERT_EQ(grid.sweep.outcomes.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(grid.at(0, 0, i).workload, names[i]);
    EXPECT_EQ(grid.at(0, 0, i).scheme, Scheme::kBaseline);
  }
}

TEST(Grid, ExpandsCrossProductWithOverrides) {
  GridSpec grid;
  grid.workloads = {"kmeans"};
  grid.schemes = {Scheme::kBaseline, Scheme::kPuno};
  grid.seeds = {1, 2, 3};
  OverrideAxis axis;
  axis.key = "htm.fixed_backoff";
  axis.values = {"16", "64"};
  grid.overrides.push_back(axis);

  const std::vector<JobSpec> specs = expand_grid(grid);
  ASSERT_EQ(specs.size(), 1u * 2u * 3u * 2u);
  bool saw_16 = false, saw_64 = false;
  for (const JobSpec& s : specs) {
    saw_16 |= s.params.base_config.htm.fixed_backoff == 16;
    saw_64 |= s.params.base_config.htm.fixed_backoff == 64;
    EXPECT_NE(s.label.find("htm.fixed_backoff="), std::string::npos);
  }
  EXPECT_TRUE(saw_16);
  EXPECT_TRUE(saw_64);
}

TEST(Grid, RejectsUnknownWorkloadAndKey) {
  GridSpec grid;
  grid.workloads = {"no-such-benchmark"};
  grid.schemes = {Scheme::kBaseline};
  EXPECT_THROW(expand_grid(grid), std::invalid_argument);

  grid.workloads = {"kmeans"};
  OverrideAxis axis;
  axis.key = "htm.no_such_knob";
  axis.values = {"1"};
  grid.overrides.push_back(axis);
  EXPECT_THROW(expand_grid(grid), std::invalid_argument);
}

// A non-positive or non-finite scale is rejected before any job runs; it
// once wrapped the STAMP quota to ~2^32 or silently meant 1.0 for traffic.
TEST(Grid, RejectsBadScale) {
  GridSpec grid;
  grid.workloads = {"kmeans"};
  grid.schemes = {Scheme::kBaseline};
  for (const double bad : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    grid.scale = bad;
    EXPECT_THROW(expand_grid(grid), std::invalid_argument) << bad;
  }
  grid.scale = 0.05;
  EXPECT_EQ(expand_grid(grid).size(), 1u);
}

TEST(Grid, WorkloadListParsing) {
  // "all" keeps its historical meaning (the 8 STAMP profiles — the perf
  // baseline depends on it); "traffic" adds the open-loop kernels and the
  // groups compose.
  const auto stamp_names = workloads::stamp::benchmark_names();
  EXPECT_EQ(parse_workload_list("all"), stamp_names);
  const auto traffic = parse_workload_list("traffic");
  ASSERT_EQ(traffic.size(), 4u);
  for (const std::string& name : traffic) {
    EXPECT_EQ(name.rfind("traffic-", 0), 0u);
  }
  const auto composed = parse_workload_list("all,traffic");
  EXPECT_EQ(composed.size(), stamp_names.size() + 4);
  const auto mixed = parse_workload_list("kmeans,traffic-queue");
  EXPECT_EQ(mixed,
            (std::vector<std::string>{"kmeans", "traffic-queue"}));
  EXPECT_THROW(parse_workload_list("traffic-heap"), std::invalid_argument);
}

TEST(Grid, TrafficOverridesFlowIntoJobSpecs) {
  GridSpec grid;
  grid.workloads = {"traffic-queue"};
  grid.schemes = {Scheme::kBaseline};
  grid.seeds = {1};
  OverrideAxis theta;
  theta.key = "traffic.zipf_theta";
  theta.values = {"0.5", "1.1"};
  grid.overrides.push_back(theta);
  OverrideAxis placement;
  placement.key = "traffic.placement";
  placement.values = {"shuffle"};
  grid.overrides.push_back(placement);

  const std::vector<JobSpec> specs = expand_grid(grid);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_DOUBLE_EQ(specs[0].params.base_config.traffic.zipf_theta, 0.5);
  EXPECT_DOUBLE_EQ(specs[1].params.base_config.traffic.zipf_theta, 1.1);
  for (const JobSpec& s : specs) {
    EXPECT_EQ(s.params.base_config.traffic.placement,
              PlacementMode::kShuffle);
  }
  // Bad enum values are rejected at expansion, not at run time.
  OverrideAxis bad;
  bad.key = "traffic.arrival";
  bad.values = {"sometimes"};
  grid.overrides.push_back(bad);
  EXPECT_THROW(expand_grid(grid), std::invalid_argument);
}

// The open-loop engine inside the parallel runner: per-job workload
// construction keeps the determinism contract, so jobs=8 stays
// byte-identical to jobs=1 with traffic workloads in the mix.
TEST(Runner, TrafficSweepBitIdenticalAcrossJobCounts) {
  GridSpec grid;
  grid.workloads = {"traffic-map", "traffic-queue"};
  grid.schemes = {Scheme::kBaseline, Scheme::kPuno};
  grid.seeds = {1, 2};
  grid.scale = 0.1;  // 51 arrivals per core
  const std::vector<JobSpec> specs = expand_grid(grid);

  RunnerOptions serial;
  serial.jobs = 1;
  RunnerOptions parallel;
  parallel.jobs = 8;
  const SweepResult a = run_jobs(specs, serial);
  const SweepResult b = run_jobs(specs, parallel);
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(b.failed, 0u);
  EXPECT_EQ(results_csv(a), results_csv(b));
  // Traffic rows actually carry the open-loop columns.
  bool saw_offered = false;
  for (const JobOutcome& o : a.outcomes) {
    saw_offered |= o.result.offered_txns > 0;
  }
  EXPECT_TRUE(saw_offered);
}

TEST(Grid, SeedListParsing) {
  EXPECT_EQ(parse_seed_list("1,2,9"), (std::vector<std::uint64_t>{1, 2, 9}));
  EXPECT_EQ(parse_seed_list("3..6"), (std::vector<std::uint64_t>{3, 4, 5, 6}));
  EXPECT_THROW(parse_seed_list("8..3"), std::invalid_argument);
  EXPECT_THROW(parse_seed_list("abc"), std::invalid_argument);
  // No sign, no wrap-around, no clamping to the largest seed.
  EXPECT_THROW(parse_seed_list("-1"), std::invalid_argument);
  EXPECT_THROW(parse_seed_list("99999999999999999999"), std::invalid_argument);
  EXPECT_THROW(parse_seed_list("1..-1"), std::invalid_argument);
}

TEST(Grid, SchemeListParsing) {
  // "all" tracks the scheme registry: every value in kAllSchemes, in order.
  const auto all = parse_scheme_list("all");
  ASSERT_EQ(all.size(), std::size(kAllSchemes));
  EXPECT_TRUE(std::equal(all.begin(), all.end(), std::begin(kAllSchemes)));
  const auto two = parse_scheme_list("baseline,reqwins");
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], Scheme::kBaseline);
  EXPECT_EQ(two[1], Scheme::kRequesterWins);
  const auto legacy = parse_scheme_list("baseline,puno");
  ASSERT_EQ(legacy.size(), 2u);
  EXPECT_EQ(legacy[0], Scheme::kBaseline);
  EXPECT_EQ(legacy[1], Scheme::kPuno);
  EXPECT_THROW(parse_scheme_list("hope"), std::invalid_argument);
}

}  // namespace
}  // namespace puno::runner

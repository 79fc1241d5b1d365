// End-to-end tracing contracts over real simulations:
//
//   1. Observability: attaching a recorder never changes simulated results
//      (bit-identical RunResult with and without tracing).
//   2. Accounting: the abort-attribution walk over a complete trace equals
//      the simulator's own false-abort counters (the Fig. 2 cross-check).
//   3. Determinism: the runner produces byte-identical trace files no
//      matter how many worker threads execute the sweep.
//   4. Overhead: the runtime-disabled emission path (null tracer) costs a
//      few nanoseconds per site — the "no measurable slowdown" assertion of
//      the zero-overhead contract (docs/TRACING.md).
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/cmp.hpp"
#include "metrics/experiment.hpp"
#include "metrics/stats_io.hpp"
#include "runner/runner.hpp"
#include "sim/kernel.hpp"
#include "trace/abort_attribution.hpp"
#include "trace/chrome_export.hpp"
#include "trace/recorder.hpp"
#include "workloads/stamp.hpp"

namespace puno::trace {
namespace {

metrics::ExperimentParams small_params(Scheme scheme = Scheme::kBaseline) {
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

TEST(TraceIntegration, TracingDoesNotPerturbResults) {
  const metrics::RunResult plain = metrics::run_experiment(small_params());

  metrics::ExperimentParams traced_params = small_params();
  traced_params.trace.enabled = true;
  metrics::RunResult traced = metrics::run_experiment(traced_params);
  EXPECT_GT(traced.trace_events, 0u);

  // Strip the trace metadata; every simulated metric must be bit-identical.
  traced.trace_path.clear();
  traced.trace_events = 0;
  traced.trace_dropped = 0;
  EXPECT_EQ(result_row(plain), result_row(traced));
}

TEST(TraceIntegration, AttributionMatchesSimulatorCounters) {
  // Contended workload so false aborts actually occur; ring sized to hold
  // the full run (dropped must be 0 for exact equality).
  SystemConfig cfg;
  cfg.scheme = Scheme::kBaseline;
  cfg.seed = 3;
  auto wl = workloads::stamp::make("intruder", cfg.num_nodes, 3, 0.1);
  arch::Cmp cmp(cfg, *wl);
  TraceRecorder rec(std::size_t{1} << 21,
                    static_cast<std::uint32_t>(Cat::kTxn) |
                        static_cast<std::uint32_t>(Cat::kConflict));
  cmp.kernel().set_tracer(&rec);
  ASSERT_TRUE(cmp.run(10'000'000));
  cmp.kernel().set_tracer(nullptr);
  ASSERT_EQ(rec.dropped(), 0u) << "ring too small for exact cross-check";

  const AttributionReport rep = attribute_aborts(rec);
  auto& stats = cmp.kernel().stats();
  EXPECT_EQ(rep.false_abort_events,
            stats.counter("htm.false_abort_events").value());
  EXPECT_EQ(rep.falsely_aborted_txns,
            stats.counter("htm.falsely_aborted_txns").value());
  // Every abort the HTM counted is in the trace and classified.
  EXPECT_EQ(rep.total_aborts(), stats.counter("htm.aborts").value());
  EXPECT_EQ(rep.overflow_aborts,
            stats.counter("htm.aborts_overflow").value());
  EXPECT_EQ(rep.unresolved_aborts, 0u);
  EXPECT_GT(rep.false_aborts, 0u) << "scenario should exhibit false aborts";
}

TEST(TraceIntegration, RunnerTraceFilesAreByteIdenticalAcrossJobCounts) {
  const std::string dir = testing::TempDir();
  auto make_specs = [&](const std::string& tag) {
    std::vector<runner::JobSpec> specs(2);
    specs[0].params = small_params(Scheme::kBaseline);
    specs[1].params = small_params(Scheme::kPuno);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      specs[i].params.trace.enabled = true;
      specs[i].params.trace.path =
          dir + "/jobs" + tag + "-" + std::to_string(i) + ".trace.json";
    }
    return specs;
  };

  runner::RunnerOptions serial;
  serial.jobs = 1;
  const auto specs1 = make_specs("1");
  const auto sweep1 = runner::run_jobs(specs1, serial);
  ASSERT_EQ(sweep1.failed, 0u);

  runner::RunnerOptions threaded;
  threaded.jobs = 2;
  const auto specs8 = make_specs("8");
  const auto sweep8 = runner::run_jobs(specs8, threaded);
  ASSERT_EQ(sweep8.failed, 0u);

  for (std::size_t i = 0; i < specs1.size(); ++i) {
    const std::string a = file_bytes(specs1[i].params.trace.path);
    const std::string b = file_bytes(specs8[i].params.trace.path);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "job " << i;
  }
}

TEST(TraceIntegration, ExperimentWritesValidChromeTraceAndReport) {
  metrics::ExperimentParams p = small_params();
  p.trace.enabled = true;
  p.trace.path = testing::TempDir() + "/experiment.trace.json";
  p.trace.report_path = testing::TempDir() + "/experiment.aborts.txt";
  const metrics::RunResult r = metrics::run_experiment(p);
  EXPECT_EQ(r.trace_path, p.trace.path);

  std::ifstream in(p.trace.path);
  ASSERT_TRUE(in.is_open());
  std::string err;
  const auto check = validate_chrome_trace(in, &err);
  ASSERT_TRUE(check.has_value()) << err;
  EXPECT_GT(check->events, 0u);

  const std::string report = file_bytes(p.trace.report_path);
  EXPECT_NE(report.find("abort attribution"), std::string::npos);
}

TEST(TraceIntegration, UnknownFilterIsRejected) {
  metrics::ExperimentParams p = small_params();
  p.trace.enabled = true;
  p.trace.filter = "txn,bogus";
  EXPECT_THROW((void)metrics::run_experiment(p), std::runtime_error);
}

TEST(TraceIntegration, DisabledEmissionPathHasNoMeasurableCost) {
  // The zero-overhead contract's runtime half: with no recorder attached,
  // PUNO_TEV is a pointer load + branch. Budget is deliberately generous
  // (50 ns/site >> the ~1 ns real cost) so the assertion never flakes under
  // sanitizers, yet still fails loudly if emission ever grows real work —
  // e.g. unconditional event construction or locking.
  sim::Kernel kernel;
  ASSERT_EQ(kernel.tracer(), nullptr);
  constexpr std::size_t kIters = std::size_t{1} << 22;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kIters; ++i) {
    // The barrier forces the null check to be re-evaluated each iteration,
    // as it is at real emission sites scattered across translation units.
    asm volatile("" ::: "memory");
    PUNO_TEV(kernel, Cat::kTxn, (TraceEvent{}));
  }
  const double ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  EXPECT_LT(ns / static_cast<double>(kIters), 50.0)
      << "disabled trace path regressed";
}

}  // namespace
}  // namespace puno::trace

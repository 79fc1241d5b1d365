// Bit-identity regression suite for the four pre-existing schemes.
//
// The golden files under tests/support/golden/ were generated from the
// pre-ConflictManager seed tree (PR 6). The refactor that moved the
// per-scheme decisions out of TxnContext's Scheme:: switches must not
// change a single byte of simulated output, so these tests pin:
//
//   * results_<scheme>.jsonl  — 32 seeds of RunResult JSONL across four
//     STAMP profiles (every scalar metric, cycle counts included);
//   * stats_<scheme>.csv      — the FULL stats-registry dump of one fuzz
//     run (every counter/histogram name and value, so a scheme cannot
//     silently grow or lose telemetry);
//   * trace_<scheme>.json     — a Chrome trace export (every event, in
//     emission order, with cycle/ts/cause payloads);
//   * aborts_<scheme>.txt     — the abort-attribution report derived from
//     that trace.
//
// Regenerate (ONLY when an intentional behaviour change is being made):
//   PUNO_REGEN_GOLDEN=1 ./build/tests/golden_identity_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "check/fuzz.hpp"
#include "metrics/experiment.hpp"
#include "metrics/stats_io.hpp"
#include "sim/config.hpp"

#ifndef PUNO_GOLDEN_DIR
#error "golden_identity_test must be compiled with -DPUNO_GOLDEN_DIR=..."
#endif

namespace puno {
namespace {

namespace fs = std::filesystem;

constexpr Scheme kPinnedSchemes[] = {Scheme::kBaseline, Scheme::kRandomBackoff,
                                     Scheme::kRmwPred, Scheme::kPuno};
constexpr std::uint32_t kNumSeeds = 32;

/// Filesystem-safe scheme slug ("RMW-Pred" contains characters gtest and
/// golden filenames should avoid).
[[nodiscard]] std::string slug(Scheme s) {
  switch (s) {
    case Scheme::kBaseline: return "baseline";
    case Scheme::kRandomBackoff: return "backoff";
    case Scheme::kRmwPred: return "rmwpred";
    case Scheme::kPuno: return "puno";
    default: return "unknown";
  }
}

/// Compares `content` against the checked-in golden file, or rewrites the
/// golden when PUNO_REGEN_GOLDEN is set. Mismatches report the first
/// differing line instead of dumping megabytes of both sides.
void compare_or_regen(const std::string& content, const std::string& name) {
  const fs::path path = fs::path(PUNO_GOLDEN_DIR) / name;
  if (std::getenv("PUNO_REGEN_GOLDEN") != nullptr) {
    fs::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << content;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open())
      << "missing golden file " << path
      << " (regenerate from a known-good tree with PUNO_REGEN_GOLDEN=1)";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();
  if (golden == content) return;

  std::istringstream got(content), want(golden);
  std::string got_line, want_line;
  std::size_t line = 1;
  for (;; ++line) {
    const bool g = static_cast<bool>(std::getline(got, got_line));
    const bool w = static_cast<bool>(std::getline(want, want_line));
    if (!g && !w) break;
    if (got_line != want_line || g != w) {
      FAIL() << name << " diverges from golden at line " << line
             << "\n  golden: " << (w ? want_line : "<eof>")
             << "\n  got:    " << (g ? got_line : "<eof>");
    }
  }
  FAIL() << name << " differs from golden (same lines, different bytes)";
}

class GoldenIdentity : public ::testing::TestWithParam<Scheme> {};

// 32 seeds x 4 STAMP profiles of full-system runs; every RunResult scalar
// (cycles, commits, aborts by cause, retries, false-abort stats, router
// traversals, ...) must match the seed byte-for-byte.
TEST_P(GoldenIdentity, ResultJsonl) {
  static const char* kWorkloads[] = {"genome", "intruder", "kmeans", "ssca2"};
  std::ostringstream out;
  for (std::uint32_t seed = 1; seed <= kNumSeeds; ++seed) {
    metrics::ExperimentParams p;
    p.workload = kWorkloads[seed % 4];
    p.scheme = GetParam();
    p.seed = seed;
    p.scale = 0.02;
    metrics::write_result_jsonl(metrics::run_experiment(p), out);
  }
  compare_or_regen(out.str(), "results_" + slug(GetParam()) + ".jsonl");
}

// Full stats-registry dump of one fuzz-shaped run: pins every counter and
// histogram NAME as well as value, so the refactor cannot register new
// stats under a pre-existing scheme (or drop old ones).
TEST_P(GoldenIdentity, StatsCsv) {
  const std::uint64_t fuzz_seed = 7;
  const SystemConfig cfg = check::make_fuzz_config(fuzz_seed, GetParam());
  const auto spec = check::make_fuzz_spec(fuzz_seed);
  const auto outcome = check::run_one(cfg, spec, check::CheckerConfig{},
                                      2'000'000);
  ASSERT_TRUE(outcome.completed);
  compare_or_regen(outcome.stats_csv, "stats_" + slug(GetParam()) + ".csv");
}

// Chrome trace export + abort-attribution report of one traced run: pins
// the event stream itself (kind, order, cycle, timestamps, abort causes).
TEST_P(GoldenIdentity, TraceAndAbortReport) {
  const fs::path tmp = fs::path(::testing::TempDir());
  const std::string trace_path =
      (tmp / ("golden_trace_" + slug(GetParam()) + ".json")).string();
  const std::string report_path =
      (tmp / ("golden_aborts_" + slug(GetParam()) + ".txt")).string();

  metrics::ExperimentParams p;
  p.workload = "intruder";
  p.scheme = GetParam();
  p.seed = 3;
  p.scale = 0.04;
  p.trace.enabled = true;
  p.trace.path = trace_path;
  p.trace.report_path = report_path;
  const auto result = metrics::run_experiment(p);
  ASSERT_TRUE(result.completed);

  for (const auto& [path, name] :
       {std::pair{trace_path, "trace_" + slug(GetParam()) + ".json"},
        std::pair{report_path, "aborts_" + slug(GetParam()) + ".txt"}}) {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open()) << path;
    std::stringstream buf;
    buf << in.rdbuf();
    compare_or_regen(buf.str(), name);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPreexistingSchemes, GoldenIdentity,
                         ::testing::ValuesIn(kPinnedSchemes),
                         [](const auto& p) {
                           switch (p.param) {
                             case Scheme::kBaseline: return "Baseline";
                             case Scheme::kRandomBackoff: return "Backoff";
                             case Scheme::kRmwPred: return "RmwPred";
                             case Scheme::kPuno: return "Puno";
                             default: return "Unknown";
                           }
                         });

}  // namespace
}  // namespace puno

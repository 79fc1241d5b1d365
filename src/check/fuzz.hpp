// Deterministic fuzz driver for the protocol invariant checker.
//
// Each fuzz case is a whole-CMP simulation of a randomized synthetic
// transactional workload on a randomized machine shape, derived entirely
// from a 64-bit seed — the same seed always produces the same cycle-exact
// run, so every failure is a one-command repro. The driver runs each case
// under the invariant oracle (coarse stride for speed), re-runs failures at
// stride 1 to pin the first failing cycle, and — when both schemes run —
// applies the differential oracle: a baseline and a PUNO simulation of the
// same seed must commit the same per-node transaction counts, because PUNO
// is a performance mechanism, not a semantics change (Section III).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "sim/config.hpp"
#include "workloads/synthetic.hpp"

namespace puno::check {

struct FuzzOptions {
  std::uint64_t seed_start = 1;
  std::uint32_t num_seeds = 16;
  /// Fuzz the open-loop traffic kernels instead of synthetic closed-loop
  /// specs: each seed draws a kernel (map/set/queue/counter) plus a
  /// randomized TrafficConfig with queue_capacity pinned to the arrival
  /// quota, so nothing is ever dropped and the per-node commit counts stay
  /// scheme-independent — the differential oracle remains valid.
  bool traffic = false;
  /// Schemes run per seed; with both kBaseline and kPuno present the
  /// differential oracle applies.
  std::vector<Scheme> schemes = {Scheme::kBaseline, Scheme::kPuno};
  /// Per-run cycle cap; a run that does not drain by then counts as a
  /// liveness failure.
  Cycle max_cycles = 2'000'000;
  CheckerConfig checker{};
  bool differential = true;
  /// Progress/failure lines land here when non-null.
  std::ostream* log = nullptr;
};

/// Everything one simulation produced, for oracles and repro reports.
struct RunOutcome {
  bool completed = false;          ///< Drained before the cycle cap.
  Cycle cycles = 0;
  std::vector<std::uint64_t> commits;  ///< Per-node committed transactions.
  std::uint64_t total_committed = 0;
  std::uint64_t falsely_aborted = 0;   ///< htm.falsely_aborted_txns.
  std::vector<Violation> violations;
  std::string stats_csv;           ///< Full stats dump (determinism oracle).
};

/// Aggregate over a whole fuzz campaign.
struct FuzzReport {
  std::uint32_t runs = 0;
  std::uint32_t violation_runs = 0;  ///< Runs with invariant violations.
  std::uint32_t incomplete_runs = 0; ///< Runs that hit the cycle cap.
  std::uint32_t differential_failures = 0;
  std::vector<std::string> repro_lines;
  /// Aggregated false-abort counts for the directional comparison
  /// (Figure 2: PUNO should falsely abort no more than the baseline).
  std::uint64_t baseline_falsely_aborted = 0;
  std::uint64_t puno_falsely_aborted = 0;

  [[nodiscard]] bool clean() const noexcept {
    return violation_runs == 0 && incomplete_runs == 0 &&
           differential_failures == 0;
  }
};

/// Deterministic randomized workload shape for `seed`: contention structure
/// (hot/anchor region sizes, site count, read/write-set sizes, RMW fraction)
/// drawn from the seed so the campaign sweeps the space the paper's Table I
/// benchmarks occupy.
[[nodiscard]] workloads::SyntheticSpec make_fuzz_spec(std::uint64_t seed);

/// Deterministic randomized machine shape for `seed` (mesh width, scheme,
/// simulation seed). Same seed + different scheme differ ONLY in the scheme,
/// which is what makes the differential oracle meaningful.
[[nodiscard]] SystemConfig make_fuzz_config(std::uint64_t seed, Scheme scheme);

/// Registry name of the traffic kernel fuzzed for `seed`
/// (e.g. "traffic-queue").
[[nodiscard]] std::string fuzz_traffic_kernel(std::uint64_t seed);

/// make_fuzz_config plus a randomized TrafficConfig (skew, arrival process,
/// placement, kernel shape) drawn from `seed`. queue_capacity is pinned to
/// the arrival quota so no request is ever shed: a dropped request would
/// make commit counts scheme-dependent and break the differential oracle.
[[nodiscard]] SystemConfig make_fuzz_traffic_config(std::uint64_t seed,
                                                    Scheme scheme);

/// Runs one simulation of `workload` through metrics::Experiment with the
/// invariant checker attached, then sweeps the checker once more at the
/// final cycle.
[[nodiscard]] RunOutcome run_one(const SystemConfig& cfg,
                                 std::unique_ptr<workloads::Workload> workload,
                                 const CheckerConfig& checker,
                                 Cycle max_cycles);

/// Convenience overload: builds the SyntheticWorkload for `spec` first.
[[nodiscard]] RunOutcome run_one(const SystemConfig& cfg,
                                 const workloads::SyntheticSpec& spec,
                                 const CheckerConfig& checker,
                                 Cycle max_cycles);

/// The punofuzz command line that replays a failing (seed, scheme) at
/// stride 1 with every invariant enabled.
[[nodiscard]] std::string repro_line(std::uint64_t seed, Scheme scheme,
                                     bool traffic = false);

/// Command-line spelling of a scheme ("baseline", "backoff", "rmw", "puno").
[[nodiscard]] const char* scheme_flag(Scheme s) noexcept;

/// Runs the whole campaign: seeds x schemes, with shrink-to-first-cycle on
/// violations and the differential oracle across schemes.
[[nodiscard]] FuzzReport run_fuzz(const FuzzOptions& opts);

}  // namespace puno::check

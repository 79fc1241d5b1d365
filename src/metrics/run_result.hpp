// Experiment result extraction: one RunResult per (workload, scheme) run,
// carrying every metric the paper's figures report.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/config.hpp"
#include "sim/stats.hpp"

namespace puno::metrics {

struct RunResult {
  std::string workload;
  Scheme scheme = Scheme::kBaseline;
  bool completed = false;  ///< All cores finished within the cycle budget.

  // Figure 13: execution time.
  Cycle cycles = 0;

  // Figure 10: transaction aborts (and their causes).
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t aborts_by_getx = 0;
  std::uint64_t aborts_by_gets = 0;
  std::uint64_t aborts_overflow = 0;

  // Figures 2-3: false aborting.
  std::uint64_t tx_getx_issued = 0;
  std::uint64_t tx_getx_nacked = 0;
  std::uint64_t request_retries = 0;  ///< Re-issues after NACK ("polling").
  /// Mean number of re-issues per acquisition that was nacked at least once
  /// — the per-handoff polling intensity notification throttles.
  double retries_per_contended_acquire = 0.0;
  std::uint64_t false_abort_events = 0;
  std::uint64_t falsely_aborted_txns = 0;
  /// Fraction of false-aborting events that aborted exactly k transactions
  /// (index k, 1..); the Figure 3 distribution.
  std::vector<double> false_abort_multiplicity;

  // Figure 11: network traffic (router traversals by all flits).
  std::uint64_t router_traversals = 0;

  // Figure 12: mean cycles a directory entry stays blocked while servicing
  // a transactional GETX.
  double dir_blocked_mean = 0.0;
  std::uint64_t dir_txgetx_services = 0;

  // Figure 14: transaction execution efficiency.
  std::uint64_t good_cycles = 0;
  std::uint64_t discarded_cycles = 0;

  // PUNO internals (prediction quality, Section III.C's "90%+ hit rate").
  std::uint64_t unicast_forwards = 0;
  std::uint64_t mp_feedbacks = 0;
  std::uint64_t notified_backoffs = 0;
  // Commit-hint extension (off by default).
  std::uint64_t commit_hints_sent = 0;
  std::uint64_t hint_wakeups = 0;

  // Event-trace metadata, set by Experiment::run() when the params carried a
  // TraceRequest (docs/TRACING.md); defaults otherwise. Not derived from the
  // stats registry — from_stats() leaves these untouched.
  std::string trace_path;            ///< Chrome trace JSON file ("" = none).
  std::uint64_t trace_events = 0;    ///< Events retained at export.
  std::uint64_t trace_dropped = 0;   ///< Events lost to ring wraparound.

  // Telemetry metadata, set by Experiment::run() when the params carried a
  // TelemetryRequest (docs/TELEMETRY.md); same contract as the trace fields
  // above (not derived from the stats registry, absent from default output).
  std::string telemetry_path;           ///< Sample-series JSONL ("" = none).
  std::uint64_t telemetry_samples = 0;  ///< Windows retained at export.
  std::uint64_t telemetry_dropped = 0;  ///< Windows lost to the series cap.

  // Open-loop traffic outcomes (docs/TRAFFIC.md), derived from the
  // traffic.* stats the engine binds at attach(). All zero for closed-loop
  // workloads (the stats don't exist there), and the JSONL keys only appear
  // when offered_txns > 0 — closed-loop rows stay byte-identical.
  std::uint64_t offered_txns = 0;      ///< Arrivals generated (admit + drop).
  std::uint64_t dropped_txns = 0;      ///< Arrivals shed at a full queue.
  std::uint64_t queue_delay_p50 = 0;   ///< Queue-delay percentiles (cycles),
  std::uint64_t queue_delay_p90 = 0;   ///< from the traffic.queue_delay
  std::uint64_t queue_delay_p99 = 0;   ///< histogram (cap = overflow bucket).

  [[nodiscard]] double abort_rate() const {
    const double total = static_cast<double>(commits + aborts);
    return total == 0.0 ? 0.0 : static_cast<double>(aborts) / total;
  }
  /// Good/Discarded transactional-cycle ratio (Figure 14; larger = better).
  [[nodiscard]] double gd_ratio() const {
    return discarded_cycles == 0
               ? static_cast<double>(good_cycles)
               : static_cast<double>(good_cycles) /
                     static_cast<double>(discarded_cycles);
  }
  /// Fraction of transactional GETX requests that triggered false aborting
  /// (Figure 2).
  [[nodiscard]] double false_abort_fraction() const {
    return tx_getx_issued == 0
               ? 0.0
               : static_cast<double>(false_abort_events) /
                     static_cast<double>(tx_getx_issued);
  }
  /// Fraction of offered open-loop arrivals shed at a full queue (0 for
  /// closed-loop workloads — nothing is ever offered, let alone dropped).
  [[nodiscard]] double drop_rate() const {
    return offered_txns == 0
               ? 0.0
               : static_cast<double>(dropped_txns) /
                     static_cast<double>(offered_txns);
  }
  /// Unicast prediction hit rate (fraction of unicasts not flagged MP).
  [[nodiscard]] double prediction_hit_rate() const {
    return unicast_forwards == 0
               ? 0.0
               : 1.0 - static_cast<double>(mp_feedbacks) /
                           static_cast<double>(unicast_forwards);
  }

  /// Populates the stat-derived fields from a finished run's registry.
  static RunResult from_stats(const sim::StatsRegistry& stats);

  bool operator==(const RunResult&) const = default;
};

/// The one list of RunResult's JSONL keys (metrics/stats_io.hpp, the result
/// cache, punobatch --jsonl, punoagg): calls visit(key, field) for every raw
/// field in declaration order; derived metrics are recomputable and not
/// listed. The trace, telemetry and open-loop groups are written only when
/// present, so rows without them keep the historical schema byte for byte.
/// `Row` is RunResult or const RunResult; see sim/jsonio.hpp's records.
template <typename Row, typename Visit>
constexpr void for_each_field(Row& r, Visit&& visit) {
  static_assert(std::is_same_v<std::remove_const_t<Row>, RunResult>);
#define PUNO_FIELD(name) visit(#name, r.name)
  PUNO_FIELD(workload);
  PUNO_FIELD(scheme);
  PUNO_FIELD(completed);
  PUNO_FIELD(cycles);
  PUNO_FIELD(commits);
  PUNO_FIELD(aborts);
  PUNO_FIELD(aborts_by_getx);
  PUNO_FIELD(aborts_by_gets);
  PUNO_FIELD(aborts_overflow);
  PUNO_FIELD(tx_getx_issued);
  PUNO_FIELD(tx_getx_nacked);
  PUNO_FIELD(request_retries);
  PUNO_FIELD(retries_per_contended_acquire);
  PUNO_FIELD(false_abort_events);
  PUNO_FIELD(falsely_aborted_txns);
  PUNO_FIELD(false_abort_multiplicity);
  PUNO_FIELD(router_traversals);
  PUNO_FIELD(dir_blocked_mean);
  PUNO_FIELD(dir_txgetx_services);
  PUNO_FIELD(good_cycles);
  PUNO_FIELD(discarded_cycles);
  PUNO_FIELD(unicast_forwards);
  PUNO_FIELD(mp_feedbacks);
  PUNO_FIELD(notified_backoffs);
  PUNO_FIELD(commit_hints_sent);
  PUNO_FIELD(hint_wakeups);
  if (visit.optional(!r.trace_path.empty() || r.trace_events > 0 ||
                     r.trace_dropped > 0)) {
    PUNO_FIELD(trace_path);
    PUNO_FIELD(trace_events);
    PUNO_FIELD(trace_dropped);
  }
  if (visit.optional(!r.telemetry_path.empty() || r.telemetry_samples > 0 ||
                     r.telemetry_dropped > 0)) {
    PUNO_FIELD(telemetry_path);
    PUNO_FIELD(telemetry_samples);
    PUNO_FIELD(telemetry_dropped);
  }
  if (visit.optional(r.offered_txns > 0)) {
    PUNO_FIELD(offered_txns);
    PUNO_FIELD(dropped_txns);
    PUNO_FIELD(queue_delay_p50);
    PUNO_FIELD(queue_delay_p90);
    PUNO_FIELD(queue_delay_p99);
  }
#undef PUNO_FIELD
}

}  // namespace puno::metrics

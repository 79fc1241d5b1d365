// Windowed telemetry series: the sample record, the fixed-capacity ring
// that holds a run's samples, and the request struct callers use to ask
// for sampling.
//
// Semantics (docs/TELEMETRY.md): every `interval` cycles the sampler
// snapshots the whole machine into one TelemetrySample. Monotonic counters
// are stored as *deltas since the previous sample* (so a window's commits
// are directly plottable and windows sum to the run totals); instantaneous
// quantities (cores in a transaction, directory occupancy, buffered flits)
// are stored as point-in-time gauges. The final window may be shorter than
// `interval` — `window` records each sample's true width.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/types.hpp"

namespace puno::telemetry {

/// One sampling window's snapshot of the whole CMP.
struct TelemetrySample {
  Cycle cycle = 0;   ///< Cycles completed at the end of this window.
  Cycle window = 0;  ///< Width in cycles (== interval except the last).

  // --- per-core transaction state (gauges at window end) ---
  std::uint32_t cores_in_txn = 0;    ///< Cores inside a transaction.
  std::uint32_t cores_aborting = 0;  ///< Aborted, awaiting restart (backoff
                                     ///< population).
  std::uint64_t read_set_blocks = 0;   ///< Sum of live read-set sizes.
  std::uint64_t write_set_blocks = 0;  ///< Sum of live write-set sizes.
  /// Per-core state: 0 = idle, 1 = in transaction, 2 = aborted/backoff.
  std::vector<std::uint64_t> core_state;

  // --- HTM activity (deltas over the window) ---
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t false_aborts = 0;       ///< htm.false_abort_events delta.
  std::uint64_t notified_backoffs = 0;  ///< TxLB-driven notified waits.
  std::uint64_t nacks = 0;              ///< l1.tx_getx_nacked delta.

  // --- directory (gauges + deltas) ---
  std::uint64_t dir_busy = 0;     ///< Entries mid-service (blocked requests).
  std::uint64_t dir_entries = 0;  ///< Total tracked blocks (occupancy).
  std::uint64_t txgetx_services = 0;  ///< dir.txgetx_services delta.

  // --- PUNO assist (deltas + gauges) ---
  std::uint64_t unicasts = 0;      ///< puno.unicast_predictions delta.
  std::uint64_t multicasts = 0;    ///< puno.multicast_fallbacks delta.
  std::uint64_t mp_feedbacks = 0;  ///< Misprediction feedbacks delta.
  std::uint64_t pbuffer_usable = 0;  ///< P-Buffer entries above the validity
                                     ///< threshold, summed over assists.
  std::uint64_t txlb_entries = 0;    ///< Live TxLB entries, summed over cores.

  // --- open-loop traffic (deltas; all zero for closed-loop workloads) ---
  std::uint64_t offered = 0;   ///< traffic.offered delta (arrivals).
  std::uint64_t admitted = 0;  ///< traffic.admitted delta.
  std::uint64_t shed = 0;      ///< traffic.dropped delta (load shedding).

  // --- NoC (deltas + gauges) ---
  std::uint64_t flits_sent = 0;     ///< noc.flits_sent delta.
  std::uint64_t flits_ejected = 0;  ///< noc.flits_ejected delta.
  std::uint64_t traversals = 0;     ///< Mesh-wide switch traversals delta.
  std::uint64_t noc_buffered = 0;   ///< Flits in router buffers (gauge).
  std::uint64_t noc_inflight = 0;   ///< Flits riding links (gauge).
  /// Per-router switch-traversal delta (index = node id).
  std::vector<std::uint64_t> router_traversals;

  // --- spatial channels (index = tile id; empty unless the request asked
  // for spatial sampling, so non-spatial series serialize unchanged) ---
  std::vector<std::uint64_t> tile_aborts;        ///< Victim-tile deltas.
  std::vector<std::uint64_t> tile_false_aborts;  ///< Requester-tile deltas.
  std::vector<std::uint64_t> tile_nacks_sent;    ///< Responder-tile deltas.
  std::vector<std::uint64_t> tile_nacks_recv;    ///< Requester-tile deltas.
  /// P-Buffer capacity-eviction deltas at each home tile's assist (all
  /// zero for schemes without assists).
  std::vector<std::uint64_t> tile_pbuffer_evictions;
  /// UD misprediction feedbacks absorbed at each home tile.
  std::vector<std::uint64_t> tile_ud_mispredicts;
  /// Gauge: L1 lines pinned by each tile's running transaction.
  std::vector<std::uint64_t> tile_txn_pins;
  /// Gauge: flits queued in each tile's router buffers.
  std::vector<std::uint64_t> tile_router_queued;

  /// True when the sample carries the per-tile spatial channels.
  [[nodiscard]] bool spatial() const noexcept { return !tile_aborts.empty(); }

  bool operator==(const TelemetrySample&) const = default;
};

/// The one list of a sample's JSONL keys and CSV columns
/// (telemetry/export.hpp): calls visit(key, field) for every field in
/// declaration order. The spatial channels are written only for spatial
/// series, so non-spatial ones keep the pre-spatial schema byte for byte.
/// `Row` is TelemetrySample or const TelemetrySample; see sim/jsonio.hpp's
/// records.
template <typename Row, typename Visit>
constexpr void for_each_field(Row& s, Visit&& visit) {
  static_assert(std::is_same_v<std::remove_const_t<Row>, TelemetrySample>);
#define PUNO_FIELD(name) visit(#name, s.name)
  PUNO_FIELD(cycle);
  PUNO_FIELD(window);
  PUNO_FIELD(cores_in_txn);
  PUNO_FIELD(cores_aborting);
  PUNO_FIELD(read_set_blocks);
  PUNO_FIELD(write_set_blocks);
  PUNO_FIELD(core_state);
  PUNO_FIELD(commits);
  PUNO_FIELD(aborts);
  PUNO_FIELD(false_aborts);
  PUNO_FIELD(notified_backoffs);
  PUNO_FIELD(nacks);
  PUNO_FIELD(dir_busy);
  PUNO_FIELD(dir_entries);
  PUNO_FIELD(txgetx_services);
  PUNO_FIELD(unicasts);
  PUNO_FIELD(multicasts);
  PUNO_FIELD(mp_feedbacks);
  PUNO_FIELD(pbuffer_usable);
  PUNO_FIELD(txlb_entries);
  PUNO_FIELD(offered);
  PUNO_FIELD(admitted);
  PUNO_FIELD(shed);
  PUNO_FIELD(flits_sent);
  PUNO_FIELD(flits_ejected);
  PUNO_FIELD(traversals);
  PUNO_FIELD(noc_buffered);
  PUNO_FIELD(noc_inflight);
  PUNO_FIELD(router_traversals);
  if (visit.optional(s.spatial())) {
    PUNO_FIELD(tile_aborts);
    PUNO_FIELD(tile_false_aborts);
    PUNO_FIELD(tile_nacks_sent);
    PUNO_FIELD(tile_nacks_recv);
    PUNO_FIELD(tile_pbuffer_evictions);
    PUNO_FIELD(tile_ud_mispredicts);
    PUNO_FIELD(tile_txn_pins);
    PUNO_FIELD(tile_router_queued);
  }
#undef PUNO_FIELD
}

/// Fixed-capacity sample store. Samples beyond capacity are counted but not
/// retained (the bound keeps a sampler's footprint predictable inside sweep
/// jobs, mirroring trace::TraceRecorder); unlike the trace ring it keeps the
/// *oldest* samples, so the series always starts at cycle 0 and `dropped()`
/// flags a truncated tail.
class SeriesRing {
 public:
  /// 16Ki windows: a 1M-cycle run sampled every 100 cycles fits untruncated.
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 14;

  explicit SeriesRing(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void push(TelemetrySample s) {
    if (samples_.size() < capacity_) {
      samples_.push_back(std::move(s));
    } else {
      ++dropped_;
    }
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] const std::vector<TelemetrySample>& samples() const noexcept {
    return samples_;
  }

 private:
  std::size_t capacity_;
  std::vector<TelemetrySample> samples_;
  std::uint64_t dropped_ = 0;
};

/// Run-scoped settings a caller (punosim, punobatch, ExperimentParams) uses
/// to request telemetry. Plain data; owned by value wherever embedded.
/// Mirrors trace::TraceRequest. Deliberately excluded from the run key
/// (runner/run_key.hpp): sampling never changes simulated results, only
/// side-effect files (verified by
/// tests/telemetry/telemetry_integration_test.cpp).
struct TelemetryRequest {
  Cycle interval = 0;    ///< Cycles per window; 0 = sampling off.
  std::string jsonl_path;     ///< Sample series JSONL; "" = don't write.
  std::string csv_path;       ///< Sample series CSV; "" = don't write.
  std::string dashboard_path; ///< Self-contained HTML; "" = don't write.
  std::size_t capacity = SeriesRing::kDefaultCapacity;
  /// Record the per-tile spatial channels (mesh heatmaps). Off by default:
  /// the extra vectors cost 8 words per tile per window, and non-spatial
  /// series must stay byte-identical to pre-spatial output.
  bool spatial = false;

  [[nodiscard]] bool active() const noexcept { return interval > 0; }
};

}  // namespace puno::telemetry

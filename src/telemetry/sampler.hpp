// TelemetrySampler: a kernel post-cycle observer that periodically
// snapshots live gauges from every subsystem of a Cmp into a SeriesRing.
//
// Attachment model mirrors check::InvariantChecker: attach() registers a
// post-cycle hook (named "telemetry.sampler" for the host profiler) on the
// Cmp's kernel. The hook only *reads* — counters from the stats registry,
// without creating absent ones, and gauges through const introspection
// accessors — so an attached sampler never changes simulated behaviour or
// the stats dump; tests/telemetry assert both are identical with sampling
// on and off.
#pragma once

#include <memory>

#include "sim/types.hpp"
#include "telemetry/series.hpp"

namespace puno::arch {
class Cmp;
}  // namespace puno::arch

namespace puno::telemetry {

class TelemetrySampler {
 public:
  /// Does not register anything; use attach() for the hooked-up form.
  /// `spatial` additionally records the per-tile channels (mesh heatmaps);
  /// the per-tile snapshot state is only allocated when it is set, so
  /// non-spatial samplers cost exactly what they did before.
  TelemetrySampler(arch::Cmp& cmp, Cycle interval, std::size_t capacity,
                   bool spatial = false);

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Creates a sampler and registers its post-cycle hook on `cmp`'s kernel.
  /// `interval` must be > 0 (callers gate on TelemetryRequest::active()).
  /// The caller owns the sampler and must keep it alive for the run.
  static std::unique_ptr<TelemetrySampler> attach(arch::Cmp& cmp,
                                                  const TelemetryRequest& req);

  /// Takes one sample now, closing the current (possibly partial) window.
  /// Call once after the run so the series covers every simulated cycle;
  /// idempotent when no cycles elapsed since the last sample.
  void finish();

  [[nodiscard]] const SeriesRing& series() const noexcept { return ring_; }
  [[nodiscard]] Cycle interval() const noexcept { return interval_; }
  [[nodiscard]] bool spatial() const noexcept { return spatial_; }

  /// Post-cycle hook body (public so tests can drive sampling manually).
  void on_post_cycle(Cycle now);

 private:
  /// Snapshot of every differenced counter at the previous sample.
  struct CounterSnapshot {
    /// One value per row of sampler.cpp's kCounterDeltas.
    std::vector<std::uint64_t> counters;
    std::vector<std::uint64_t> router_traversals;
    // Per-tile cumulative values of the differenced spatial channels.
    // Sized lazily in the constructor only when spatial sampling is on.
    std::vector<std::uint64_t> tile_aborts;
    std::vector<std::uint64_t> tile_false_aborts;
    std::vector<std::uint64_t> tile_nacks_sent;
    std::vector<std::uint64_t> tile_nacks_recv;
    std::vector<std::uint64_t> tile_pbuffer_evictions;
    std::vector<std::uint64_t> tile_ud_mispredicts;
  };

  /// Closes the window ending after `cycles_completed` cycles.
  void take_sample(Cycle cycles_completed);

  arch::Cmp& cmp_;
  Cycle interval_;
  bool spatial_;
  SeriesRing ring_;
  CounterSnapshot prev_;
  Cycle prev_cycle_ = 0;  ///< Cycles completed at the last sample.
};

}  // namespace puno::telemetry

// Host-side self-profiling interface.
//
// The kernel can be asked to time, in host (wall-clock) terms, every
// Tickable::tick, every event-handler batch and every post-cycle hook it
// runs, reporting the costs to a ProfileSink. The concrete sink — the
// per-component aggregator with naming and report output — lives in
// src/telemetry (telemetry/host_profiler.hpp); this header only defines
// what the kernel needs to see, so puno_sim stays dependency-free.
//
// Zero-overhead contract (mirrors tracing, docs/TELEMETRY.md): with no sink
// attached the kernel pays one predictable null-pointer test per cycle.
// Profiling reads only the host clock and writes only into the sink, so the
// simulated run is bit-identical with or without it.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace puno::sim {

/// A monotonic host timestamp for interval measurement. On x86-64 this is
/// the TSC (one instruction, ~no serialization — cheap enough to bracket
/// every tick); elsewhere it falls back to steady_clock nanoseconds. Units
/// are "host ticks": only ratios and sums are meaningful, and
/// host_ticks_per_second() converts to seconds for reports.
[[nodiscard]] inline std::uint64_t host_ticks() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Measures the host-tick rate against steady_clock (calibrated once, on
/// first use; ~1 ms of spinning). On the chrono fallback this is exactly
/// 1e9.
[[nodiscard]] double host_ticks_per_second();

/// Receiver for the kernel's per-component host-time measurements. Indexes
/// are registration orders (see Kernel::add_tickable / add_post_cycle_hook);
/// the kernel reports the matching names once via declare_*.
class ProfileSink {
 public:
  virtual ~ProfileSink() = default;

  /// Announces the name of tickable / post-cycle hook `idx` (called when the
  /// sink is attached, for every component registered so far, and again for
  /// late registrations).
  virtual void declare_tickable(std::size_t idx, const char* name) = 0;
  virtual void declare_hook(std::size_t idx, const char* name) = 0;

  /// One Tickable::tick of component `idx` took `ticks` host ticks.
  virtual void tickable_cost(std::size_t idx, std::uint64_t ticks) = 0;
  /// One post-cycle hook invocation of hook `idx` took `ticks` host ticks.
  virtual void hook_cost(std::size_t idx, std::uint64_t ticks) = 0;
  /// The cycle's whole event-drain phase (all due events) took `ticks` host
  /// ticks over `events` handler invocations. Events carry no component
  /// identity (they are plain closures), so they are profiled as one bucket.
  virtual void event_cost(std::uint64_t events, std::uint64_t ticks) = 0;
};

}  // namespace puno::sim

// HostProfiler: the concrete sim::ProfileSink.
//
// Aggregates the kernel's per-component host-tick measurements into named
// buckets (call count + total host ticks) and renders a per-component
// breakdown — where the *simulator's own* wall-clock time goes, as opposed
// to the simulated-cycle accounting everywhere else in the tree. Used by
// `punosim --profile`.
//
// Attach with kernel.set_profiler(&profiler); detach (set nullptr) before
// the profiler goes out of scope.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/profile.hpp"

namespace puno::telemetry {

class HostProfiler final : public sim::ProfileSink {
 public:
  struct Bucket {
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t ticks = 0;
  };

  // sim::ProfileSink:
  void declare_tickable(std::size_t idx, const char* name) override;
  void declare_hook(std::size_t idx, const char* name) override;
  void tickable_cost(std::size_t idx, std::uint64_t ticks) override;
  void hook_cost(std::size_t idx, std::uint64_t ticks) override;
  void event_cost(std::uint64_t events, std::uint64_t ticks) override;

  [[nodiscard]] const std::vector<Bucket>& tickables() const noexcept {
    return tickables_;
  }
  [[nodiscard]] const std::vector<Bucket>& hooks() const noexcept {
    return hooks_;
  }
  [[nodiscard]] const Bucket& events() const noexcept { return events_; }

  /// Sum of all measured ticks (tickables + events + hooks).
  [[nodiscard]] std::uint64_t total_ticks() const noexcept;

  /// Human-readable breakdown: one row per component, sorted by cost,
  /// with seconds (via sim::host_ticks_per_second) and percentages.
  void write_report(std::ostream& out) const;

  /// Machine-readable form: {"components":[{"name","calls","ticks"}...],
  /// "total_ticks":N} — written by `punosim --profile=FILE`.
  void write_json(std::ostream& out) const;

 private:
  static void ensure(std::vector<Bucket>& v, std::size_t idx);

  std::vector<Bucket> tickables_;
  std::vector<Bucket> hooks_;
  Bucket events_{"kernel.events", 0, 0};
};

}  // namespace puno::telemetry

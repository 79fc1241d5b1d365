// The benchmark's own tracing: a sim::ProfileSink that aggregates the
// kernel's per-cycle phases for one job at a time, and an in-memory span log
// of the calls the benchmark makes into each layer. Nothing here changes a
// simulated statistic; spans are written out only when the benchmark ends.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/profile.hpp"

namespace punobench {

/// Calls, total host ticks and a log2 histogram of per-call ticks of one
/// per-cycle phase.
struct PhaseStats {
  std::uint64_t calls = 0;
  std::uint64_t ticks = 0;
  std::array<std::uint64_t, 64> log2_ticks{};

  void add(std::uint64_t t) noexcept {
    ++calls;
    ticks += t;
    ++log2_ticks[static_cast<std::size_t>(63 - __builtin_clzll(t | 1))];
  }
  void merge(const PhaseStats& o) noexcept;
  /// Upper edge, in host ticks, of the log2 bucket holding quantile `p`.
  [[nodiscard]] std::uint64_t quantile_upper_ticks(double p) const noexcept;
};

/// One job's per-cycle phases: each tickable by name, the event drain (with
/// the number of handlers it ran) and the post-cycle hooks.
struct JobPhases {
  std::vector<std::pair<std::string, PhaseStats>> tickables;
  std::vector<std::pair<std::string, PhaseStats>> hooks;
  PhaseStats drain;
  std::uint64_t events = 0;

  /// Host ticks of every tickable whose name starts with `prefix`.
  [[nodiscard]] std::uint64_t tickable_ticks(const std::string& prefix) const;
  [[nodiscard]] std::uint64_t hook_ticks() const;
  [[nodiscard]] std::uint64_t total_ticks() const;
  /// Timed calls of every phase: one probe each.
  [[nodiscard]] std::uint64_t probe_calls() const;
  void merge(const JobPhases& o);
};

/// Aggregating ProfileSink: per-cycle costs go into fixed counters, so a
/// traced run holds a few kilobytes per job however many cycles it runs.
class PhaseProfiler final : public puno::sim::ProfileSink {
 public:
  void declare_tickable(std::size_t idx, const char* name) override;
  void declare_hook(std::size_t idx, const char* name) override;
  void tickable_cost(std::size_t idx, std::uint64_t ticks) override {
    phases_.tickables[idx].second.add(ticks);
  }
  void hook_cost(std::size_t idx, std::uint64_t ticks) override {
    phases_.hooks[idx].second.add(ticks);
  }
  void event_cost(std::uint64_t events, std::uint64_t ticks) override {
    phases_.drain.add(ticks);
    phases_.events += events;
  }

  /// Returns the phases recorded since the last take() and starts afresh.
  [[nodiscard]] JobPhases take();

  /// Host ticks one probe costs outside the interval it brackets: the
  /// closing timestamp's tail, the call into this sink and the next
  /// opening timestamp. Measured once (best of several batches) by timing
  /// back-to-back empty probes through the ProfileSink interface.
  [[nodiscard]] static double probe_gap_ticks();

 private:
  JobPhases phases_;
};

/// A span of host time at a layer boundary. Spans of one job share `job`;
/// `parent` is the index of the enclosing span in the log (-1 for a root).
struct Span {
  std::uint64_t job = 0;
  std::string name;
  double start_s = 0.0;  ///< Seconds since the log's origin.
  double end_s = 0.0;
  std::int64_t parent = -1;
};

/// Seconds on the steady clock since the process's first call; the time
/// base of every span and host measurement in the benchmark.
[[nodiscard]] double host_now_s();

/// CPU seconds the process has run, all threads summed. Unlike host_now_s it
/// stops while the process waits for a CPU: preempted by other processes, or
/// its virtual CPU descheduled by the hypervisor (steal time, which the guest
/// kernel subtracts under paravirtual time accounting).
[[nodiscard]] double host_cpu_s();

class SpanLog {
 public:
  /// Appends a span and returns its index.
  std::int64_t add(Span s);
  /// Records `phases` as the per-cycle breakdown of simulate span `span`.
  void attach_phases(std::int64_t span, JobPhases phases);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Each span's self time: its duration minus its child spans and, for a
  /// simulate span, minus the per-cycle phases attached to it.
  [[nodiscard]] std::vector<double> self_times(double ticks_per_second) const;

  /// Writes every span as a Chrome trace-event JSON document (opens in
  /// Perfetto / chrome://tracing); phase breakdowns become span args.
  void write_chrome_json(std::ostream& out, double ticks_per_second) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::pair<std::int64_t, JobPhases>> phases_;
};

}  // namespace punobench

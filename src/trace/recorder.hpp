// Fixed-capacity ring-buffer trace recorder.
//
// A TraceRecorder owns a preallocated ring of TraceEvents. Recording is a
// masked bit-test plus a struct copy — no allocation, no I/O, no branches on
// simulated state — so attaching a recorder never changes simulation
// results (verified by tests/trace/trace_integration_test.cpp).
//
// Attachment model: the Kernel holds a nullable `trace::TraceRecorder*`
// (see sim/kernel.hpp). Components emit through the PUNO_TEV macro below,
// which costs one null check when no recorder is attached (the
// zero-overhead contract, docs/TRACING.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/events.hpp"

namespace puno::trace {

/// Parse a comma-separated category filter ("txn,conflict", "all", "dir")
/// into a Cat bitmask. Empty string means all categories. Returns
/// std::nullopt on an unknown token. Accepted tokens: txn, conflict, dir,
/// noc, puno, all.
[[nodiscard]] std::optional<std::uint32_t> parse_filter(std::string_view s);

/// Render a category mask back to canonical filter syntax ("txn,dir",
/// "all").
[[nodiscard]] std::string filter_to_string(std::uint32_t mask);

class TraceRecorder {
 public:
  /// 256Ki events ≈ 12 MiB: enough to hold every event of the smoke-sized
  /// workloads without wrapping, small enough to sit in a sweep job.
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;

  explicit TraceRecorder(std::size_t capacity = kDefaultCapacity,
                         std::uint32_t category_mask = kAllCats);

  /// Does the filter want this category? Emitters call this before paying
  /// for event construction.
  [[nodiscard]] bool wants(Cat c) const noexcept {
    return (mask_ & static_cast<std::uint32_t>(c)) != 0;
  }

  /// Append one event; O(1), never allocates. When the ring is full the
  /// oldest event is overwritten (dropped() starts counting).
  void record(const TraceEvent& ev) noexcept {
    ring_[next_] = ev;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    ++recorded_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  [[nodiscard]] std::uint32_t category_mask() const noexcept { return mask_; }

  /// Events currently held (≤ capacity).
  [[nodiscard]] std::uint64_t size() const noexcept {
    return recorded_ < ring_.size() ? recorded_ : ring_.size();
  }
  /// Events ever recorded, including overwritten ones.
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  /// Oldest events lost to ring wraparound.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
  }

  /// Visit retained events oldest → newest (recording order; within a cycle
  /// this is deterministic emission order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t n = static_cast<std::size_t>(size());
    const std::size_t first =
        recorded_ > ring_.size() ? next_ : 0;  // wrapped ⇒ oldest is at next_
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t at = first + i < ring_.size()
                                 ? first + i
                                 : first + i - ring_.size();
      fn(ring_[at]);
    }
  }

  /// Retained events as a vector, oldest → newest (convenience for
  /// exporters and tests).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  void clear() noexcept {
    next_ = 0;
    recorded_ = 0;
  }

 private:
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;        // slot the next event lands in
  std::uint64_t recorded_ = 0;  // lifetime count, monotone
  std::uint32_t mask_ = kAllCats;
};

/// Run-scoped settings a caller (punosim, punobatch, ExperimentParams)
/// uses to request tracing. Plain data; owned by value wherever embedded.
struct TraceRequest {
  bool enabled = false;      ///< Master switch; false ⇒ all below ignored.
  std::string filter;        ///< Category filter syntax; "" = all.
  std::string path;          ///< Chrome trace JSON output; "" = don't write.
  std::string report_path;   ///< Abort-attribution report; "" = don't write.
  std::size_t capacity = TraceRecorder::kDefaultCapacity;

  [[nodiscard]] bool active() const noexcept { return enabled; }
};

}  // namespace puno::trace

/// Emission macro used at every instrumentation site:
///
///   PUNO_TEV(kernel_, trace::Cat::kTxn,
///            (trace::TraceEvent{.cycle = kernel_.now(), ...}));
///
/// Expands to a pointer load + mask test guarding the event construction
/// (runtime-disabled cost: one predictable branch).
#define PUNO_TEV(kernel, cat, ...)                                          \
  do {                                                                      \
    if (::puno::trace::TraceRecorder* puno_tev_r_ = (kernel).tracer();      \
        puno_tev_r_ != nullptr && puno_tev_r_->wants(cat)) {                \
      puno_tev_r_->record(__VA_ARGS__);                                     \
    }                                                                       \
  } while (false)

// The simulation kernel: a synchronous clocked engine plus a delayed-event
// scheduler.
//
// Components that do per-cycle work (routers, cache controllers, cores)
// implement Tickable and register with the kernel; latency-shaped work
// (memory access completion, backoff expiry) is scheduled as one-shot events.
// Everything runs single-threaded and deterministically: within one cycle,
// tickables run in registration order and events in scheduling order.
//
// The scheduler is a calendar queue: events due within the next kWindow
// cycles land in a per-cycle bucket of a circular array (append = O(1), no
// comparisons), and only far-future events (notification backoff expiry,
// rollover timeouts) fall back to a binary heap. Nearly every event in a
// simulation is a small constant delay — the NoC link stage's landings (one
// per busy cycle; its credits return inside the mesh tick), cache and
// directory latencies — so the hot path never touches the heap.
// Event callables are sim::EventFn (smallfn.hpp), which stores typical
// captures inline instead of heap-allocating like std::function. Both
// structures preserve the exact (due-cycle, scheduling-order) event
// ordering of the original single heap, so simulations are bit-identical
// to the pre-calendar-queue kernel.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/profile.hpp"
#include "sim/smallfn.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace puno::trace {
class TraceRecorder;  // src/trace — depends on sim, so only a pointer here
}  // namespace puno::trace

namespace puno::sim {

/// Interface for components that act every cycle.
class Tickable {
 public:
  virtual ~Tickable() = default;
  /// Perform this component's work for the current cycle.
  virtual void tick(Cycle now) = 0;
};

/// Single-clock-domain simulation kernel.
class Kernel {
 public:
  /// Calendar-queue horizon: events with delay < kWindow use the bucket
  /// ring, the rest the far-future heap. Covers every constant simulation
  /// latency (links, pipelines, caches, DRAM at 200) with room to spare.
  static constexpr Cycle kWindow = 256;

  Kernel() : buckets_(kWindow), bucket_unsorted_(kWindow, 0) {}
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  [[nodiscard]] Cycle now() const noexcept { return now_; }

  /// Registers a per-cycle component. Order of registration fixes the order
  /// of evaluation within a cycle (and therefore determinism). The name is
  /// only used by the host profiler's per-component breakdown.
  void add_tickable(Tickable& t, std::string name = "tickable") {
    tickables_.push_back(&t);
    tickable_names_.push_back(std::move(name));
    if (profiler_ != nullptr) {
      profiler_->declare_tickable(tickables_.size() - 1,
                                  tickable_names_.back().c_str());
    }
  }

  /// Schedules `fn` to run `delay` cycles from now (0 = later this cycle,
  /// after all tickables). Events at the same cycle run in scheduling order;
  /// a zero-delay event scheduled from inside another event handler still
  /// runs this cycle, after all previously-scheduled same-cycle events.
  void schedule(Cycle delay, EventFn fn) {
    const Cycle when = now_ + delay;
    ++pending_;
    if (delay >= kWindow) {
      far_.push_back(Event{when, next_seq_++, std::move(fn)});
      std::push_heap(far_.begin(), far_.end(), EventLater{});
      return;
    }
    // A zero-delay event scheduled after this cycle's events already drained
    // (i.e. from a post-cycle hook) runs next cycle. It keeps `when = now`,
    // which sorts it ahead of genuine next-cycle events — exactly the order
    // the single-heap kernel produced — so the target bucket needs a sort.
    Cycle slot_cycle = when;
    if (delay == 0 && post_drain_) slot_cycle = now_ + 1;
    const std::size_t idx = static_cast<std::size_t>(slot_cycle) & kMask;
    if (slot_cycle != when) bucket_unsorted_[idx] = 1;
    buckets_[idx].push_back(Event{when, next_seq_++, std::move(fn)});
  }

  /// Registers an observer invoked at the end of every cycle, after all
  /// tickables and events have run but before the clock advances. Hooks must
  /// only *inspect* state; an event scheduled from a hook (even with delay 0)
  /// runs in the next cycle.
  void add_post_cycle_hook(std::function<void(Cycle)> hook,
                           std::string name = "hook") {
    post_cycle_hooks_.push_back(std::move(hook));
    hook_names_.push_back(std::move(name));
    if (profiler_ != nullptr) {
      profiler_->declare_hook(post_cycle_hooks_.size() - 1,
                              hook_names_.back().c_str());
    }
  }

  /// Advances one cycle: run all tickables, then all events due this cycle,
  /// then the post-cycle hooks.
  void step() {
    if (profiler_ != nullptr) {
      step_profiled();
      return;
    }
    for (Tickable* t : tickables_) t->tick(now_);
    drain_due_events();
    for (const auto& hook : post_cycle_hooks_) hook(now_);
    ++now_;
    post_drain_ = false;
  }

  /// Runs until `done()` returns true or `max_cycles` elapse.
  /// Returns true if `done()` fired (i.e., we did not hit the cycle limit).
  bool run_until(const std::function<bool()>& done, Cycle max_cycles) {
    const Cycle limit = now_ + max_cycles;
    while (now_ < limit) {
      if (done()) return true;
      step();
    }
    return done();
  }

  /// Runs a fixed number of cycles.
  void run_for(Cycle cycles) {
    const Cycle limit = now_ + cycles;
    while (now_ < limit) step();
  }

  [[nodiscard]] std::size_t pending_events() const noexcept {
    return pending_;
  }

  /// Global stats registry for this simulation instance.
  [[nodiscard]] StatsRegistry& stats() noexcept { return stats_; }

  /// Optional event-trace recorder. Null (the default) means tracing is
  /// off; components emit through PUNO_TEV (trace/recorder.hpp), which
  /// reduces to this null check. The kernel does not own the recorder —
  /// the caller (e.g. metrics::Experiment) keeps it alive for the run.
  void set_tracer(trace::TraceRecorder* t) noexcept { tracer_ = t; }
  [[nodiscard]] trace::TraceRecorder* tracer() const noexcept {
    return tracer_;
  }

  /// Optional host-time profiler. Null (the default) means step() runs the
  /// unprofiled path; with a sink attached every tick, event batch and hook
  /// is bracketed with host_ticks(). Like the tracer, the kernel does not
  /// own the sink.
  void set_profiler(ProfileSink* p) {
    profiler_ = p;
    if (profiler_ == nullptr) return;
    for (std::size_t i = 0; i < tickable_names_.size(); ++i) {
      profiler_->declare_tickable(i, tickable_names_[i].c_str());
    }
    for (std::size_t i = 0; i < hook_names_.size(); ++i) {
      profiler_->declare_hook(i, hook_names_[i].c_str());
    }
  }
  [[nodiscard]] ProfileSink* profiler() const noexcept { return profiler_; }

 private:
  static constexpr std::size_t kMask = kWindow - 1;
  static_assert((kWindow & kMask) == 0, "kWindow must be a power of two");

  struct Event {
    Cycle when;
    std::uint64_t seq;  // tie-break: FIFO among same-cycle events
    EventFn fn;
  };
  /// Heap comparator: the front of the heap is the earliest (when, seq).
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  /// Drain-order comparator: earliest (when, seq) first.
  struct EventEarlier {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }
  };

  /// Runs all events due this cycle. Returns the number of handlers run.
  std::uint64_t drain_due_events() {
    const std::size_t idx = static_cast<std::size_t>(now_) & kMask;
    std::vector<Event>& slot = buckets_[idx];
    bool unsorted = bucket_unsorted_[idx] != 0;
    bucket_unsorted_[idx] = 0;
    // Far-future events maturing this cycle join the bucket. They pop from
    // the heap in (when, seq) order but interleave with bucket entries by
    // seq, so the merged bucket needs the sort below.
    if (!far_.empty() && far_.front().when <= now_) {
      do {
        std::pop_heap(far_.begin(), far_.end(), EventLater{});
        slot.push_back(std::move(far_.back()));
        far_.pop_back();
      } while (!far_.empty() && far_.front().when <= now_);
      unsorted = true;
    }
    if (unsorted) std::sort(slot.begin(), slot.end(), EventEarlier{});

    // Handlers may schedule zero-delay events, which append to this same
    // bucket (always with the highest seq so far, keeping it ordered);
    // index-based iteration picks them up, and moving the event out first
    // keeps it safe across any push_back reallocation.
    std::uint64_t ran = 0;
    for (std::size_t i = 0; i < slot.size(); ++i) {
      Event ev = std::move(slot[i]);
      ev.fn();
      ++ran;
    }
    pending_ -= ran;
    slot.clear();  // capacity is retained for the bucket's next lap
    post_drain_ = true;
    return ran;
  }

  /// step() with each phase bracketed by host_ticks(). A separate method so
  /// the common unprofiled path stays branch-light and the timing calls sit
  /// outside it entirely.
  void step_profiled() {
    for (std::size_t i = 0; i < tickables_.size(); ++i) {
      const std::uint64_t t0 = host_ticks();
      tickables_[i]->tick(now_);
      profiler_->tickable_cost(i, host_ticks() - t0);
    }
    {
      const std::uint64_t t0 = host_ticks();
      const std::uint64_t ran = drain_due_events();
      profiler_->event_cost(ran, host_ticks() - t0);
    }
    for (std::size_t i = 0; i < post_cycle_hooks_.size(); ++i) {
      const std::uint64_t t0 = host_ticks();
      post_cycle_hooks_[i](now_);
      profiler_->hook_cost(i, host_ticks() - t0);
    }
    ++now_;
    post_drain_ = false;
  }

  Cycle now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t pending_ = 0;   ///< Events queued across buckets + heap.
  bool post_drain_ = false;   ///< This cycle's events already ran (hooks).
  std::vector<Tickable*> tickables_;
  std::vector<std::string> tickable_names_;  ///< Parallel to tickables_.
  std::vector<std::vector<Event>> buckets_;  ///< Calendar ring [cycle % W].
  std::vector<std::uint8_t> bucket_unsorted_;  ///< Needs sort before drain.
  std::vector<Event> far_;  ///< Binary heap (EventLater) for delay >= W.
  std::vector<std::function<void(Cycle)>> post_cycle_hooks_;
  std::vector<std::string> hook_names_;  ///< Parallel to post_cycle_hooks_.
  StatsRegistry stats_;
  trace::TraceRecorder* tracer_ = nullptr;    // not owned
  ProfileSink* profiler_ = nullptr;           // not owned
};

}  // namespace puno::sim

// Transaction Priority Buffer (P-Buffer), Section III.B / Figure 5.
//
// One per directory (i.e. per node). Entries record the latest known
// transaction priority (timestamp) of nodes on the CMP, refreshed from
// every incoming transactional coherence request. Each entry carries a 2-bit
// validity counter driven by a shared rollover timeout:
//
//   * timeout  -> every non-zero validity counter decrements (staleness);
//   * update   -> the entry's counter increments, and an update to a
//                 0-validity entry increments twice (Figure 5(b)), giving
//                 freshly revived entries a longer grace period;
//   * only entries with validity counter > 1 participate in unicast
//     prediction.
//
// Misprediction feedback (Section III.C) zeroes the offending entry.
//
// The paper sizes the buffer at one entry per node of its 16-core CMP.
// Past that, the buffer is capacity-bounded: it tracks at most `capacity`
// distinct nodes, and learning an untracked node when full evicts a victim
// deterministically — lowest validity first (most stale), then youngest
// timestamp (lowest priority, least likely to win a conflict), then the
// highest node id. Evictions are the P-Buffer-pressure signal the scale
// study reports (puno.pbuffer_evictions). With capacity >= num_nodes no
// eviction can ever occur, so the paper's 16-node configuration behaves
// exactly as the unbounded seed did. Aging and eviction visit only the
// tracked nodes, so each costs O(capacity), whatever the node count.
//
// Units: `ts` is a transaction timestamp (priority), not a cycle count —
// it is derived as begin_cycle * num_nodes + node, so smaller means older
// and older wins conflicts; kInvalidTimestamp marks "no known priority".
// The validity counter is dimensionless; the *cadence* of on_timeout() is
// the directory's adaptive validity timeout, measured in cycles and owned
// by PunoDirectory (puno_directory.hpp), not by this class.
//
// Ownership: one PBuffer is owned by value by each node's PunoDirectory.
// get() returns a reference into the table that is only valid until the
// next update — callers (unicast prediction) copy the fields they need
// within the same cycle and never retain the reference.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace puno::core {

class PBuffer {
 public:
  struct Entry {
    Timestamp ts = kInvalidTimestamp;
    std::uint8_t validity = 0;  ///< 2-bit saturating counter, 0..3.
  };

  /// Unbounded form (capacity == node count): the paper's configuration.
  explicit PBuffer(std::uint32_t num_nodes) : PBuffer(num_nodes, num_nodes) {}

  /// Capacity-bounded form: track at most `capacity` of `num_nodes` nodes.
  PBuffer(std::uint32_t capacity, std::uint32_t num_nodes)
      : slots_(num_nodes), capacity_(capacity == 0 ? num_nodes : capacity) {}

  /// Refreshes node `n`'s priority from an incoming transactional request,
  /// evicting a victim first if the buffer is full and `n` is untracked.
  void update(NodeId n, Timestamp ts) {
    assert(n < slots_.size());
    Slot& s = slots_[n];
    if (!s.tracked) {
      if (tracked_.size() == capacity_) evict_one();
      s.tracked = true;
      s.e = Entry{};
      tracked_.push_back(n);
    }
    s.e.ts = ts;
    // Figure 5(b): +1 on update, +2 when reviving a fully stale entry.
    const std::uint8_t inc = s.e.validity == 0 ? 2 : 1;
    s.e.validity = static_cast<std::uint8_t>(
        s.e.validity + inc > 3 ? 3 : s.e.validity + inc);
  }

  /// Rollover-counter timeout: age every entry. An untracked slot always
  /// holds validity 0, so only tracked nodes need visiting.
  void on_timeout() {
    for (const NodeId n : tracked_) {
      Entry& e = slots_[n].e;
      if (e.validity > 0) --e.validity;
    }
  }

  /// Misprediction feedback: the recorded priority was stale; kill it. The
  /// entry stays allocated (a zero-validity entry, as in the paper).
  void invalidate(NodeId n) {
    assert(n < slots_.size());
    slots_[n].e.validity = 0;
  }

  /// Untracked nodes read as an empty entry (no priority, zero validity).
  [[nodiscard]] const Entry& get(NodeId n) const {
    assert(n < slots_.size());
    return slots_[n].e;
  }

  /// True if entry `n` may be used for unicast prediction (validity > 1,
  /// Section III.B).
  [[nodiscard]] bool usable(NodeId n,
                            std::uint8_t threshold = 1) const {
    const Entry& e = slots_[n].e;
    return e.validity > threshold && e.ts != kInvalidTimestamp;
  }

  [[nodiscard]] bool tracked(NodeId n) const {
    assert(n < slots_.size());
    return slots_[n].tracked;
  }
  [[nodiscard]] std::uint32_t tracked_count() const noexcept {
    return static_cast<std::uint32_t>(tracked_.size());
  }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  /// Node-id index range (== num_nodes).
  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(slots_.size());
  }
  /// Total capacity evictions so far (the scale study's pressure metric).
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  struct Slot {
    Entry e;
    bool tracked = false;
  };

  /// Deterministic victim order: lowest validity, then youngest (largest)
  /// timestamp — kInvalidTimestamp sorts youngest of all — then highest id.
  [[nodiscard]] bool evicts_before(NodeId a, NodeId b) const {
    const Entry& x = slots_[a].e;
    const Entry& y = slots_[b].e;
    if (x.validity != y.validity) return x.validity < y.validity;
    if (x.ts != y.ts) return x.ts > y.ts;
    return a > b;
  }

  void evict_one() {
    assert(!tracked_.empty());
    std::size_t v = 0;
    for (std::size_t i = 1; i < tracked_.size(); ++i) {
      if (evicts_before(tracked_[i], tracked_[v])) v = i;
    }
    slots_[tracked_[v]] = Slot{};
    tracked_[v] = tracked_.back();
    tracked_.pop_back();
    ++evictions_;
  }

  std::vector<Slot> slots_;  ///< Indexed by node id.
  std::uint32_t capacity_;
  /// Ids of the tracked nodes, at most capacity_ of them, in no order.
  std::vector<NodeId> tracked_;
  std::uint64_t evictions_ = 0;
};

}  // namespace puno::core

// Sharer-set abstraction: who holds a copy of a block, as the directory
// tracks it.
//
// The paper's 16-core CMP (Table II) lets a directory entry track sharers
// with one 64-bit mask. Past 64 tiles that stops being representable, and
// past a few hundred it stops being realistic hardware: a 1024-tile mesh
// would spend 128 B per entry on an exact vector. SharerSet factors the
// representation out of the protocol and offers the three classic encodings
// (selected by DirectoryConfig::sharer_rep):
//
//   * kFull    — exact bit per node. Inline storage up to 128 nodes, one
//                heap allocation beyond. This is the seed behaviour and the
//                representation the 16-node golden tests pin bit-for-bit.
//   * kCoarse  — coarse bit-vector: one bit per region of K consecutive
//                nodes (DirectoryConfig::coarse_region). Over-approximates:
//                any member of a region marks the whole region. Spurious
//                invalidations to non-holders are acked like the stale-
//                sharer acks the protocol already tolerates.
//   * kLimited — up to P exact node pointers (DirectoryConfig::
//                limited_pointers, <= 16); one more distinct sharer
//                overflows to broadcast (every node is considered a
//                sharer until the set is rebuilt from scratch).
//
// Only the directory entry's sharer list is representation-encoded (that is
// the hardware structure whose area scales with node count). Transient
// protocol state — invalidation target sets, UNBLOCK survivor sets, MSHR
// nacker sets — stays exact (default-constructed kFull), exactly as wide
// as the nodes that actually appear in it.
//
// Lossy representations are always over-approximations: contains() never
// returns false for a real sharer, so the DIR-L1 inclusivity invariant is
// preserved by construction. Iteration (for_each) is in ascending node id
// for every representation — the order every protocol multicast and UD
// recomputation relies on for determinism.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "sim/config.hpp"
#include "sim/types.hpp"

namespace puno::coherence {

class SharerSet {
 public:
  /// Representation parameters, normally derived from a SystemConfig via
  /// sharer_params(cfg). num_nodes == 0 is allowed only for kFull and means
  /// "unbounded domain, grow on demand" (transient exact sets).
  struct Params {
    SharerRep rep = SharerRep::kFull;
    std::uint16_t num_nodes = 0;
    std::uint16_t coarse_region = 4;
    std::uint16_t limited_pointers = 4;
  };

  static constexpr std::uint32_t kMaxLimitedPointers = 16;

  /// Exact full-bit-vector set over an unbounded domain (transient sets).
  SharerSet() = default;

  explicit SharerSet(const Params& p)
      : rep_(p.rep),
        ptr_cap_(p.limited_pointers),
        num_nodes_(p.num_nodes),
        region_(p.coarse_region == 0 ? 1 : p.coarse_region) {
    assert(rep_ == SharerRep::kFull || num_nodes_ > 0);
    if (ptr_cap_ == 0) ptr_cap_ = 1;
    if (ptr_cap_ > kMaxLimitedPointers) ptr_cap_ = kMaxLimitedPointers;
  }

  SharerSet(const SharerSet& o) { copy_from(o); }
  SharerSet& operator=(const SharerSet& o) {
    if (this != &o) copy_from(o);
    return *this;
  }
  SharerSet(SharerSet&&) noexcept = default;
  SharerSet& operator=(SharerSet&&) noexcept = default;

  [[nodiscard]] SharerRep rep() const noexcept { return rep_; }
  /// Limited-pointer set has overflowed: every node counts as a sharer.
  [[nodiscard]] bool broadcast() const noexcept { return broadcast_; }

  /// Removes every member; representation parameters are kept.
  void clear() noexcept {
    std::memset(inline_, 0, sizeof(inline_));
    if (heap_) std::memset(heap_.get(), 0, heap_words_ * sizeof(std::uint64_t));
    ptr_count_ = 0;
    broadcast_ = false;
  }

  void add(NodeId n) {
    assert(num_nodes_ == 0 || n < num_nodes_);
    switch (rep_) {
      case SharerRep::kFull:
        set_bit(n);
        return;
      case SharerRep::kCoarse:
        set_bit(static_cast<NodeId>(n / region_));
        return;
      case SharerRep::kLimited: {
        if (broadcast_) return;
        // Keep the pointer list sorted so iteration stays ascending.
        std::uint8_t i = 0;
        while (i < ptr_count_ && ptrs_[i] < n) ++i;
        if (i < ptr_count_ && ptrs_[i] == n) return;
        if (ptr_count_ == ptr_cap_) {
          // One sharer too many: overflow to broadcast (Dir_i_B style).
          broadcast_ = true;
          ptr_count_ = 0;
          return;
        }
        for (std::uint8_t j = ptr_count_; j > i; --j) ptrs_[j] = ptrs_[j - 1];
        ptrs_[i] = n;
        ++ptr_count_;
        return;
      }
    }
  }

  /// Removal is representation-limited, mirroring the hardware:
  ///   * kFull: exact.
  ///   * kCoarse: no-op — a region bit cannot be cleared without knowing the
  ///     other members (the directory rebuilds via assign() instead).
  ///   * kLimited: drops the pointer when present; no-op once broadcast.
  void remove(NodeId n) {
    switch (rep_) {
      case SharerRep::kFull:
        clear_bit(n);
        return;
      case SharerRep::kCoarse:
        return;
      case SharerRep::kLimited: {
        if (broadcast_) return;
        for (std::uint8_t i = 0; i < ptr_count_; ++i) {
          if (ptrs_[i] != n) continue;
          for (std::uint8_t j = i; j + 1 < ptr_count_; ++j)
            ptrs_[j] = ptrs_[j + 1];
          --ptr_count_;
          return;
        }
        return;
      }
    }
  }

  [[nodiscard]] bool contains(NodeId n) const noexcept {
    switch (rep_) {
      case SharerRep::kFull:
        return test_bit(n);
      case SharerRep::kCoarse:
        return test_bit(static_cast<NodeId>(n / region_));
      case SharerRep::kLimited: {
        if (broadcast_) return n < num_nodes_;
        for (std::uint8_t i = 0; i < ptr_count_; ++i) {
          if (ptrs_[i] == n) return true;
        }
        return false;
      }
    }
    return false;
  }

  [[nodiscard]] bool empty() const noexcept {
    switch (rep_) {
      case SharerRep::kFull:
      case SharerRep::kCoarse: {
        for (std::uint32_t w = 0; w < words(); ++w) {
          if (word(w) != 0) return false;
        }
        return true;
      }
      case SharerRep::kLimited:
        return !broadcast_ && ptr_count_ == 0;
    }
    return true;
  }

  /// Number of *represented* sharers (over-approximations count every node
  /// they cover; broadcast counts the whole machine).
  [[nodiscard]] std::uint32_t count() const noexcept {
    switch (rep_) {
      case SharerRep::kFull: {
        std::uint32_t c = 0;
        for (std::uint32_t w = 0; w < words(); ++w)
          c += static_cast<std::uint32_t>(std::popcount(word(w)));
        return c;
      }
      case SharerRep::kCoarse: {
        std::uint32_t c = 0;
        const std::uint32_t regions = num_regions();
        for (std::uint32_t r = 0; r < regions; ++r) {
          if (!test_bit(static_cast<NodeId>(r))) continue;
          const std::uint32_t lo = r * region_;
          const std::uint32_t hi =
              std::min<std::uint32_t>(lo + region_, num_nodes_);
          c += hi - lo;
        }
        return c;
      }
      case SharerRep::kLimited:
        return broadcast_ ? num_nodes_ : ptr_count_;
    }
    return 0;
  }

  /// Visits every represented member in ascending node id.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    switch (rep_) {
      case SharerRep::kFull: {
        for (std::uint32_t w = 0; w < words(); ++w) {
          std::uint64_t bits = word(w);
          while (bits != 0) {
            const auto b = static_cast<std::uint32_t>(std::countr_zero(bits));
            fn(static_cast<NodeId>(w * 64 + b));
            bits &= bits - 1;
          }
        }
        return;
      }
      case SharerRep::kCoarse: {
        const std::uint32_t regions = num_regions();
        for (std::uint32_t r = 0; r < regions; ++r) {
          if (!test_bit(static_cast<NodeId>(r))) continue;
          const std::uint32_t lo = r * region_;
          const std::uint32_t hi =
              std::min<std::uint32_t>(lo + region_, num_nodes_);
          for (std::uint32_t n = lo; n < hi; ++n) fn(static_cast<NodeId>(n));
        }
        return;
      }
      case SharerRep::kLimited: {
        if (broadcast_) {
          for (std::uint32_t n = 0; n < num_nodes_; ++n)
            fn(static_cast<NodeId>(n));
          return;
        }
        for (std::uint8_t i = 0; i < ptr_count_; ++i) fn(ptrs_[i]);
        return;
      }
    }
  }

  /// First 64 nodes of the expansion, as the legacy bitmask (trace events
  /// carry this; it truncates on purpose past node 63).
  [[nodiscard]] std::uint64_t mask64() const {
    std::uint64_t m = 0;
    for_each([&m](NodeId n) {
      if (n < 64) m |= std::uint64_t{1} << n;
    });
    return m;
  }

  /// Exact (kFull) copy of the represented members, minus `excl`. This is
  /// how the directory derives invalidation targets from a possibly lossy
  /// sharer list.
  [[nodiscard]] SharerSet expand_excluding(NodeId excl) const {
    SharerSet out;
    out.num_nodes_ = num_nodes_;
    for_each([&out, excl](NodeId n) {
      if (n != excl) out.set_bit(n);
    });
    return out;
  }

  /// Exact copy of the represented members.
  [[nodiscard]] SharerSet expand() const {
    return expand_excluding(kInvalidNode);
  }

  /// Re-encodes the members of `members` into this set's representation
  /// (the directory rebuilding its sharer list from exact survivor info).
  void assign(const SharerSet& members) {
    clear();
    members.for_each([this](NodeId n) { add(n); });
  }

  /// Exact intersection of two sets' represented members.
  [[nodiscard]] static SharerSet intersect(const SharerSet& a,
                                           const SharerSet& b) {
    SharerSet out;
    out.num_nodes_ = a.num_nodes_;
    a.for_each([&out, &b](NodeId n) {
      if (b.contains(n)) out.set_bit(n);
    });
    return out;
  }

  [[nodiscard]] std::vector<NodeId> to_vector() const {
    std::vector<NodeId> v;
    v.reserve(count());
    for_each([&v](NodeId n) { v.push_back(n); });
    return v;
  }

  /// Same represented membership (representation parameters ignored).
  [[nodiscard]] friend bool operator==(const SharerSet& a, const SharerSet& b) {
    return a.to_vector() == b.to_vector();
  }

 private:
  static constexpr std::uint32_t kInlineWords = 2;  ///< 128 nodes heap-free.

  [[nodiscard]] std::uint32_t num_regions() const noexcept {
    return (num_nodes_ + region_ - 1) / region_;
  }
  [[nodiscard]] std::uint32_t words() const noexcept {
    return kInlineWords + heap_words_;
  }
  [[nodiscard]] std::uint64_t word(std::uint32_t w) const noexcept {
    return w < kInlineWords ? inline_[w] : heap_[w - kInlineWords];
  }

  void set_bit(NodeId n) {
    const std::uint32_t w = n / 64u;
    if (w >= kInlineWords) {
      const std::uint32_t hw = w - kInlineWords;
      if (hw >= heap_words_) grow_heap(hw + 1);
      heap_[hw] |= std::uint64_t{1} << (n % 64u);
      return;
    }
    inline_[w] |= std::uint64_t{1} << (n % 64u);
  }
  void clear_bit(NodeId n) noexcept {
    const std::uint32_t w = n / 64u;
    if (w >= kInlineWords) {
      const std::uint32_t hw = w - kInlineWords;
      if (hw < heap_words_) heap_[hw] &= ~(std::uint64_t{1} << (n % 64u));
      return;
    }
    inline_[w] &= ~(std::uint64_t{1} << (n % 64u));
  }
  [[nodiscard]] bool test_bit(NodeId n) const noexcept {
    const std::uint32_t w = n / 64u;
    if (w >= kInlineWords) {
      const std::uint32_t hw = w - kInlineWords;
      return hw < heap_words_ &&
             (heap_[hw] & (std::uint64_t{1} << (n % 64u))) != 0;
    }
    return (inline_[w] & (std::uint64_t{1} << (n % 64u))) != 0;
  }

  void grow_heap(std::uint32_t need) {
    auto bigger = std::make_unique<std::uint64_t[]>(need);
    std::memset(bigger.get(), 0, need * sizeof(std::uint64_t));
    if (heap_)
      std::memcpy(bigger.get(), heap_.get(),
                  heap_words_ * sizeof(std::uint64_t));
    heap_ = std::move(bigger);
    heap_words_ = need;
  }

  void copy_from(const SharerSet& o) {
    rep_ = o.rep_;
    broadcast_ = o.broadcast_;
    ptr_count_ = o.ptr_count_;
    ptr_cap_ = o.ptr_cap_;
    num_nodes_ = o.num_nodes_;
    region_ = o.region_;
    ptrs_ = o.ptrs_;
    std::memcpy(inline_, o.inline_, sizeof(inline_));
    heap_words_ = o.heap_words_;
    if (o.heap_) {
      heap_ = std::make_unique<std::uint64_t[]>(heap_words_);
      std::memcpy(heap_.get(), o.heap_.get(),
                  heap_words_ * sizeof(std::uint64_t));
    } else {
      heap_.reset();
    }
  }

  SharerRep rep_ = SharerRep::kFull;
  bool broadcast_ = false;
  std::uint8_t ptr_count_ = 0;
  std::uint8_t ptr_cap_ = kMaxLimitedPointers;
  std::uint16_t num_nodes_ = 0;  ///< 0 = unbounded (kFull transient sets).
  std::uint16_t region_ = 1;
  std::uint32_t heap_words_ = 0;
  std::uint64_t inline_[kInlineWords] = {0, 0};
  std::unique_ptr<std::uint64_t[]> heap_;
  std::array<NodeId, kMaxLimitedPointers> ptrs_{};
};

/// Directory-entry representation parameters for a system configuration.
[[nodiscard]] inline SharerSet::Params sharer_params(const SystemConfig& cfg) {
  return SharerSet::Params{
      .rep = cfg.dir.sharer_rep,
      .num_nodes = static_cast<std::uint16_t>(cfg.num_nodes),
      .coarse_region = static_cast<std::uint16_t>(cfg.dir.coarse_region),
      .limited_pointers = static_cast<std::uint16_t>(cfg.dir.limited_pointers),
  };
}

}  // namespace puno::coherence

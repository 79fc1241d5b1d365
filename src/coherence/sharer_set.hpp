// Sharer set: an exact set of node ids, and the rule a directory uses to
// record a sharer in the encoding it is configured with.
//
// The paper's 16-core CMP (Table II) lets a directory entry track sharers
// with one 64-bit mask. Past 64 tiles that stops being representable, and
// past a few hundred it stops being realistic hardware: a 1024-tile mesh
// would spend 128 B per entry on an exact vector. The modelled hardware
// therefore offers the three classic encodings (DirectoryConfig::
// sharer_rep):
//
//   * kFull    — exact bit per node (the default, and the encoding the
//                16-node golden tests pin).
//   * kCoarse  — one bit per region of K consecutive nodes (DirectoryConfig::
//                coarse_region): any member of a region marks the whole
//                region, clipped to num_nodes.
//   * kLimited — up to P exact node pointers (DirectoryConfig::
//                limited_pointers, <= 16); one more distinct sharer
//                overflows to broadcast (every node is a sharer until the
//                list is rebuilt from scratch).
//
// The simulator keeps every set as exact bits: two inline words, heap words
// past 128 nodes. An encoding only decides which nodes a directory records
// when it adds a sharer (Params::add), so a lossy list is stored as the
// members its hardware would represent. Every reader (UD recomputation, the
// invalidation fan-out, the invariant checker, the trace's 64-bit mask)
// sees those members in ascending node id, at every size and encoding.
// Spurious members are over-approximations: contains() never returns false
// for a real sharer, so DIR-L1 inclusivity holds by construction, and a
// non-holder acks its invalidation like the stale-sharer acks the protocol
// already tolerates.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "sim/config.hpp"
#include "sim/types.hpp"

namespace puno::coherence {

class SharerSet {
 public:
  /// A directory's sharer encoding, normally derived from a SystemConfig
  /// via sharer_params(cfg).
  struct Params {
    SharerRep rep = SharerRep::kFull;
    std::uint16_t num_nodes = 0;
    std::uint16_t coarse_region = 4;
    std::uint16_t limited_pointers = 4;

    /// Records sharer `n` in the directory list `s`: kFull adds `n`,
    /// kCoarse adds `n`'s whole region, and kLimited adds `n` when it is
    /// listed already or fewer than limited_pointers members are present,
    /// and every node otherwise.
    void add(SharerSet& s, NodeId n) const {
      std::uint32_t lo = n;
      std::uint32_t hi = n + 1u;
      switch (rep) {
        case SharerRep::kFull:
          break;
        case SharerRep::kCoarse:
          lo = n / coarse_region * coarse_region;
          hi = std::min<std::uint32_t>(lo + coarse_region, num_nodes);
          break;
        case SharerRep::kLimited:
          if (s.contains(n) || s.count() < limited_pointers) break;
          lo = 0;
          hi = num_nodes;
          break;
      }
      // Highest first, so the heap grows at most once.
      for (std::uint32_t m = hi; m-- > lo;) s.add(static_cast<NodeId>(m));
    }
  };

  SharerSet() = default;
  SharerSet(const SharerSet& o) { *this = o; }
  SharerSet& operator=(const SharerSet& o) {
    if (this == &o) return *this;
    std::memcpy(inline_, o.inline_, sizeof(inline_));
    heap_words_ = o.heap_words_;
    heap_.reset();
    if (heap_words_ != 0) {
      heap_ = std::make_unique<std::uint64_t[]>(heap_words_);
      std::memcpy(heap_.get(), o.heap_.get(),
                  heap_words_ * sizeof(std::uint64_t));
    }
    return *this;
  }
  SharerSet(SharerSet&&) noexcept = default;
  SharerSet& operator=(SharerSet&&) noexcept = default;

  /// Removes every member, keeping the storage.
  void clear() noexcept {
    std::memset(inline_, 0, sizeof(inline_));
    if (heap_) std::memset(heap_.get(), 0, heap_words_ * sizeof(std::uint64_t));
  }

  void add(NodeId n) {
    const std::uint32_t w = n / 64u;
    if (w >= words()) grow_heap(w + 1 - kInlineWords);
    word_ref(w) |= bit(n);
  }

  void remove(NodeId n) noexcept {
    const std::uint32_t w = n / 64u;
    if (w < words()) word_ref(w) &= ~bit(n);
  }

  [[nodiscard]] bool contains(NodeId n) const noexcept {
    return (word(n / 64u) & bit(n)) != 0;
  }

  [[nodiscard]] bool empty() const noexcept {
    for (std::uint32_t w = 0; w < words(); ++w) {
      if (word(w) != 0) return false;
    }
    return true;
  }

  [[nodiscard]] std::uint32_t count() const noexcept {
    std::uint32_t c = 0;
    for (std::uint32_t w = 0; w < words(); ++w)
      c += static_cast<std::uint32_t>(std::popcount(word(w)));
    return c;
  }

  /// Visits every member in ascending node id.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t w = 0; w < words(); ++w) {
      std::uint64_t bits = word(w);
      while (bits != 0) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(bits));
        fn(static_cast<NodeId>(w * 64 + b));
        bits &= bits - 1;
      }
    }
  }

  /// Members below node 64, as a bitmask (trace events carry this; it
  /// truncates on purpose past node 63).
  [[nodiscard]] std::uint64_t mask64() const noexcept { return inline_[0]; }

  [[nodiscard]] static SharerSet intersect(const SharerSet& a,
                                           const SharerSet& b) {
    SharerSet out = a;
    for (std::uint32_t w = 0; w < out.words(); ++w) {
      out.word_ref(w) &= b.word(w);
    }
    return out;
  }

  [[nodiscard]] std::vector<NodeId> to_vector() const {
    std::vector<NodeId> v;
    v.reserve(count());
    for_each([&v](NodeId n) { v.push_back(n); });
    return v;
  }

  /// Same members, whatever storage either set has grown.
  [[nodiscard]] friend bool operator==(const SharerSet& a, const SharerSet& b) {
    const std::uint32_t n = std::max(a.words(), b.words());
    for (std::uint32_t w = 0; w < n; ++w) {
      if (a.word(w) != b.word(w)) return false;
    }
    return true;
  }

 private:
  static constexpr std::uint32_t kInlineWords = 2;  ///< 128 nodes heap-free.

  [[nodiscard]] static std::uint64_t bit(NodeId n) noexcept {
    return std::uint64_t{1} << (n % 64u);
  }
  [[nodiscard]] std::uint32_t words() const noexcept {
    return kInlineWords + heap_words_;
  }
  /// Word `w`, or 0 past the storage.
  [[nodiscard]] std::uint64_t word(std::uint32_t w) const noexcept {
    if (w < kInlineWords) return inline_[w];
    w -= kInlineWords;
    return w < heap_words_ ? heap_[w] : 0;
  }
  [[nodiscard]] std::uint64_t& word_ref(std::uint32_t w) noexcept {
    return w < kInlineWords ? inline_[w] : heap_[w - kInlineWords];
  }

  void grow_heap(std::uint32_t need) {
    auto bigger = std::make_unique<std::uint64_t[]>(need);  // zeroed
    if (heap_)
      std::memcpy(bigger.get(), heap_.get(),
                  heap_words_ * sizeof(std::uint64_t));
    heap_ = std::move(bigger);
    heap_words_ = need;
  }

  std::uint32_t heap_words_ = 0;
  std::uint64_t inline_[kInlineWords] = {0, 0};
  std::unique_ptr<std::uint64_t[]> heap_;
};
static_assert(sizeof(SharerSet) == 32);

/// The sharer encoding a directory of this system configuration applies.
[[nodiscard]] inline SharerSet::Params sharer_params(const SystemConfig& cfg) {
  return SharerSet::Params{
      .rep = cfg.dir.sharer_rep,
      .num_nodes = static_cast<std::uint16_t>(cfg.num_nodes),
      .coarse_region = static_cast<std::uint16_t>(cfg.dir.coarse_region),
      .limited_pointers = static_cast<std::uint16_t>(cfg.dir.limited_pointers),
  };
}

}  // namespace puno::coherence

// Deterministic id-ordered active set for NoC components.
//
// Mesh::tick used to tick every router and NI every cycle; with this set it
// visits only components that registered themselves on receiving work, in
// ascending id order — the exact order the full sweep used, so skipping
// quiescent tiles is behaviour-invisible. The set is a bitmask: add/remove
// are a single OR/AND, iteration scans whole 64-bit words, and an idle mesh
// costs one word test per 64 tiles instead of 64 virtual-free but
// branch-heavy tick calls.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace puno::noc {

class ActiveSet {
 public:
  explicit ActiveSet(std::uint32_t n = 0) { resize(n); }

  void resize(std::uint32_t n) { words_.assign((n + 63) / 64, 0); }

  void add(NodeId id) noexcept {
    words_[id >> 6] |= std::uint64_t{1} << (id & 63);
  }
  void remove(NodeId id) noexcept {
    words_[id >> 6] &= ~(std::uint64_t{1} << (id & 63));
  }
  [[nodiscard]] bool contains(NodeId id) const noexcept {
    return (words_[id >> 6] >> (id & 63)) & 1u;
  }
  [[nodiscard]] bool empty() const noexcept {
    for (std::uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }
  [[nodiscard]] std::uint32_t count() const noexcept {
    std::uint32_t c = 0;
    for (std::uint64_t w : words_) c += popcount(w);
    return c;
  }

  /// Visits every member in ascending id order. `fn(id)` returns true to
  /// keep the member, false to remove it. Members added to *other* ids
  /// during iteration by `fn` are picked up if their id is still ahead of
  /// the scan; the mesh only ever adds ids of the set scanned later in the
  /// cycle, so the visible semantics match the full id-ordered sweep.
  template <typename Fn>
  void for_each_prune(Fn&& fn) {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const auto bit = static_cast<std::uint32_t>(ctz(bits));
        bits &= bits - 1;
        const auto id = static_cast<NodeId>(w * 64 + bit);
        if (!fn(id)) remove(id);
      }
    }
  }

 private:
  [[nodiscard]] static std::uint32_t popcount(std::uint64_t v) noexcept {
    return static_cast<std::uint32_t>(__builtin_popcountll(v));
  }
  [[nodiscard]] static int ctz(std::uint64_t v) noexcept {
    return __builtin_ctzll(v);
  }

  std::vector<std::uint64_t> words_;
};

}  // namespace puno::noc

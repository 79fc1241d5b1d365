// Generic set-associative tag array with true-LRU replacement.
//
// Used for both the private L1s and the shared L2 banks. The simulator
// tracks tags and per-line metadata only — simulated programs have no data
// values, so "data" never needs to be stored.
//
// The lines come from std::calloc, so their all-zero bytes must be the
// default line: address 0, LRU 0, invalid, and a LineState whose default is
// zero. calloc keeps set-up from touching the tag pages only when glibc
// serves the array with a fresh mmap: by default from 128 KiB up (a 16-tile
// L2 bank's 192 KiB of tags), a threshold glibc raises once such a block is
// freed. Smaller arrays, like the 12 KiB L1s and the 12 KiB L2 banks of a
// 256-tile CMP, are carved from the brk heap, where calloc clears them with
// memset, so they are resident from the moment they are built.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <type_traits>

#include "sim/types.hpp"

namespace puno::coherence {

/// Per-line metadata kept by a CacheArray user.
/// `valid` and `state` share the tail word, so a line with a one-byte
/// LineState is 24 bytes.
template <typename LineState>
struct CacheLine {
  BlockAddr addr = 0;
  std::uint64_t lru = 0;  ///< Larger = more recently used.
  bool valid = false;
  LineState state{};
};

template <typename LineState>
class CacheArray {
  static_assert(std::is_trivially_copyable_v<CacheLine<LineState>>,
                "CacheArray zero-fills its lines with calloc");

 public:
  /// size_bytes / block_bytes must be divisible by assoc; all powers of two.
  CacheArray(std::uint64_t size_bytes, std::uint32_t assoc,
             std::uint32_t block_bytes)
      : assoc_(assoc),
        block_bytes_(block_bytes),
        num_sets_(static_cast<std::uint32_t>(size_bytes / block_bytes / assoc)),
        lines_(static_cast<CacheLine<LineState>*>(
            std::calloc(static_cast<std::size_t>(num_sets_) * assoc,
                        sizeof(CacheLine<LineState>)))) {
    assert(std::has_single_bit(num_sets_));
    assert(std::has_single_bit(block_bytes_));
    if (!lines_) throw std::bad_alloc();
  }

  [[nodiscard]] std::uint32_t num_sets() const noexcept { return num_sets_; }
  [[nodiscard]] std::uint32_t assoc() const noexcept { return assoc_; }

  [[nodiscard]] std::uint32_t set_index(BlockAddr addr) const noexcept {
    return static_cast<std::uint32_t>((addr / block_bytes_) & (num_sets_ - 1));
  }

  /// Looks up `addr`; returns the line if present and valid.
  [[nodiscard]] CacheLine<LineState>* find(BlockAddr addr) {
    const std::uint32_t set = set_index(addr);
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      CacheLine<LineState>& line = at(set, w);
      if (line.valid && line.addr == addr) return &line;
    }
    return nullptr;
  }
  [[nodiscard]] const CacheLine<LineState>* find(BlockAddr addr) const {
    return const_cast<CacheArray*>(this)->find(addr);
  }

  /// Marks a line most-recently-used.
  void touch(CacheLine<LineState>& line) noexcept { line.lru = ++lru_clock_; }

  /// Returns the line to fill for `addr`: an invalid way if one exists,
  /// otherwise the LRU way. The caller must handle eviction of the returned
  /// line if it is valid (check `valid` before overwriting).
  [[nodiscard]] CacheLine<LineState>& victim(BlockAddr addr) {
    const std::uint32_t set = set_index(addr);
    CacheLine<LineState>* best = &at(set, 0);
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      CacheLine<LineState>& line = at(set, w);
      if (!line.valid) return line;
      if (line.lru < best->lru) best = &line;
    }
    return *best;
  }

  /// Victim selection that skips lines for which `pinned(state)` is true
  /// (e.g. transactional lines that must not be silently evicted). Returns
  /// nullptr if every way in the set is pinned.
  template <typename Pred>
  [[nodiscard]] CacheLine<LineState>* victim_excluding(BlockAddr addr,
                                                       Pred&& pinned) {
    const std::uint32_t set = set_index(addr);
    CacheLine<LineState>* best = nullptr;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      CacheLine<LineState>& line = at(set, w);
      if (!line.valid) return &line;
      if (pinned(line)) continue;
      if (best == nullptr || line.lru < best->lru) best = &line;
    }
    return best;
  }

  /// Installs `addr` into `line` (which the caller obtained from victim()).
  CacheLine<LineState>& fill(CacheLine<LineState>& line, BlockAddr addr) {
    line.addr = addr;
    line.valid = true;
    line.state = LineState{};
    touch(line);
    return line;
  }

  void invalidate(CacheLine<LineState>& line) noexcept { line.valid = false; }

  /// Iterates all valid lines (test/debug aid).
  template <typename Fn>
  void for_each_valid(Fn&& fn) {
    for (auto& line : lines()) {
      if (line.valid) fn(line);
    }
  }
  template <typename Fn>
  void for_each_valid(Fn&& fn) const {
    for (const auto& line : lines()) {
      if (line.valid) fn(line);
    }
  }

 private:
  struct Free {
    void operator()(void* p) const noexcept { std::free(p); }
  };

  [[nodiscard]] std::span<CacheLine<LineState>> lines() noexcept {
    return {lines_.get(), static_cast<std::size_t>(num_sets_) * assoc_};
  }
  [[nodiscard]] std::span<const CacheLine<LineState>> lines() const noexcept {
    return {lines_.get(), static_cast<std::size_t>(num_sets_) * assoc_};
  }
  [[nodiscard]] CacheLine<LineState>& at(std::uint32_t set, std::uint32_t way) {
    return lines_[static_cast<std::size_t>(set) * assoc_ + way];
  }

  std::uint32_t assoc_;
  std::uint32_t block_bytes_;
  std::uint32_t num_sets_;
  std::uint64_t lru_clock_ = 0;
  std::unique_ptr<CacheLine<LineState>[], Free> lines_;
};

}  // namespace puno::coherence

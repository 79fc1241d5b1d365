// Index half of a router input VC's flit ring.
//
// A VC buffer holds at most NocConfig::vc_depth flits — the credit protocol
// guarantees it. The router keeps every input VC's flits in one slot array
// sized once at construction (inputs x vc_depth) and passes each call the
// VC's span of it; the ring itself is just a head and a size, one byte
// each, which is why validate() caps vc_depth at kMaxDepth. Wraps are
// compares against the span's size, not a modulo. Flits are plain values
// (flit.hpp), so a pop only moves the indices and the next push overwrites
// the stale slot. The mesh writes a flit into its ring only once the flit
// may switch, so the front flit is always eligible and the ring stores no
// timing.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>

#include "noc/flit.hpp"

namespace puno::noc {

class FlitRing {
 public:
  /// Deepest ring the byte-wide indices can address.
  static constexpr std::uint32_t kMaxDepth = 255;

  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full(std::span<const Flit> slots) const noexcept {
    return size_ == slots.size();
  }

  void push_back(std::span<Flit> slots, Flit f) {
    assert(size_ < slots.size() &&
           "VC ring overflow (credit protocol violated)");
    slots[wrap(head_ + size_, slots)] = f;
    ++size_;
  }

  [[nodiscard]] const Flit& front(std::span<const Flit> slots) const noexcept {
    assert(size_ > 0);
    return slots[head_];
  }

  void pop_front(std::span<const Flit> slots) noexcept {
    assert(size_ > 0);
    head_ = static_cast<std::uint8_t>(wrap(head_ + 1u, slots));
    --size_;
  }

  /// Drops the youngest flit (fault injection for the invariant-checker
  /// tests; head/VA state stays sane).
  void pop_back() noexcept {
    assert(size_ > 0);
    --size_;
  }

 private:
  /// Folds a position in [0, 2 * size) back into the span.
  [[nodiscard]] static std::uint32_t wrap(std::uint32_t pos,
                                          std::span<const Flit> slots) {
    return pos >= slots.size() ? pos - static_cast<std::uint32_t>(slots.size())
                               : pos;
  }

  std::uint8_t head_ = 0;
  std::uint8_t size_ = 0;
};

}  // namespace puno::noc

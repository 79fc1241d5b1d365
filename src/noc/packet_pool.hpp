// Id-addressed arena of the packets in flight through the NoC.
//
// A packet lives in one slot from the moment its source NI accepts it
// (NetworkInterface::send) until the destination NI delivers it on its tail
// flit and frees the slot. Flits name their packet by slot id (flit.hpp),
// so nothing in between holds, counts or releases a reference: the arena
// is the packet's only owner, and a missed or doubled free shows as a live
// slot in a drained mesh (the NOC-CONSERVATION drain check). Freed ids are
// recycled through a free list, and the arena grows by one slot only when
// every slot is live, so its capacity is the peak number of packets in
// flight and the steady state allocates nothing. Single-threaded by design
// (the kernel is); allocation order is deterministic, and no simulated
// behaviour depends on slot identity. One arena serves every NI of a mesh.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "noc/packet.hpp"

namespace puno::noc {

class PacketPool {
 public:
  using Id = std::uint32_t;
  /// An id no slot has; marks "no packet".
  static constexpr Id kNone = ~Id{0};

  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Takes a free slot, growing the arena by one if none is free, and
  /// returns its id. The slot holds a default-initialized packet.
  [[nodiscard]] Id allocate() {
    ++live_;
    if (free_.empty()) {
      slots_.emplace_back();
      return static_cast<Id>(slots_.size() - 1);
    }
    const Id id = free_.back();
    free_.pop_back();
    slots_[id] = Packet{};
    return id;
  }

  /// Returns slot `id` to the free list and drops its payload.
  void release(Id id) {
    assert(id < slots_.size() && live_ > 0);
    slots_[id].payload.reset();
    free_.push_back(id);
    --live_;
  }

  /// The packet in slot `id`. A reference is valid until the next
  /// allocate(), which may grow the arena.
  [[nodiscard]] Packet& operator[](Id id) noexcept {
    assert(id < slots_.size());
    return slots_[id];
  }

  /// Slots allocated and not yet released.
  [[nodiscard]] std::size_t live() const noexcept { return live_; }
  /// Arena capacity: every slot ever created, free or live.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_.size();
  }

 private:
  std::vector<Packet> slots_;
  std::vector<Id> free_;
  std::size_t live_ = 0;
};

}  // namespace puno::noc

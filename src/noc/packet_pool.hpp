// Pooled, non-atomic refcounted packets for the NoC hot path.
//
// Every flit of a packet used to share a std::shared_ptr<Packet>: one heap
// allocation per packet plus two atomic RMWs per flit copy — on a
// single-threaded kernel where nothing is ever contended. PacketRef replaces
// it with an intrusive, non-atomic refcount over packets that live in a
// free-list arena: allocation is a pointer pop, release is a pointer push,
// and copying a flit is a plain increment. The arena never shrinks while
// the simulation runs (steady state is allocation-free) and is shared by
// every NI of a mesh. The mesh owns it as a member declared before every
// holder of a PacketRef (link stage, routers, NIs), so it is destroyed last.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "noc/packet.hpp"

namespace puno::noc {

class PacketPool;

/// Arena slot: the packet plus the intrusive bookkeeping PacketRef uses.
struct PooledPacket {
  Packet pkt;
  std::uint32_t refs = 0;
  PooledPacket* next_free = nullptr;
  PacketPool* pool = nullptr;
};

/// Non-atomic refcounted handle to a pooled packet. Copy = one increment;
/// destruction of the last handle returns the slot to its pool's free list.
class PacketRef {
 public:
  PacketRef() noexcept = default;
  PacketRef(const PacketRef& o) noexcept : p_(o.p_) {
    if (p_ != nullptr) ++p_->refs;
  }
  PacketRef(PacketRef&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
  PacketRef& operator=(const PacketRef& o) noexcept {
    if (p_ != o.p_) {
      release();
      p_ = o.p_;
      if (p_ != nullptr) ++p_->refs;
    }
    return *this;
  }
  PacketRef& operator=(PacketRef&& o) noexcept {
    if (this != &o) {
      release();
      p_ = o.p_;
      o.p_ = nullptr;
    }
    return *this;
  }
  ~PacketRef() { release(); }

  void reset() noexcept {
    release();
    p_ = nullptr;
  }

  [[nodiscard]] Packet* operator->() const noexcept { return &p_->pkt; }
  [[nodiscard]] Packet& operator*() const noexcept { return p_->pkt; }
  [[nodiscard]] explicit operator bool() const noexcept {
    return p_ != nullptr;
  }

 private:
  friend class PacketPool;
  explicit PacketRef(PooledPacket* p) noexcept : p_(p) {}

  inline void release() noexcept;

  PooledPacket* p_ = nullptr;
};

/// Free-list arena of packets. Single-threaded by design (the kernel is);
/// allocation order is deterministic, and no simulated behaviour ever
/// depends on slot identity.
class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Hands out a packet with default-initialized fields and refcount 1.
  [[nodiscard]] PacketRef allocate() {
    if (free_ == nullptr) grow();
    PooledPacket* p = free_;
    free_ = p->next_free;
    ++live_;
    p->pkt = Packet{};
    p->refs = 1;
    return PacketRef{p};
  }

  /// Packets currently held by at least one PacketRef.
  [[nodiscard]] std::size_t live() const noexcept { return live_; }
  /// Arena capacity (all slots ever allocated, free or live).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return chunks_.size() * kChunk;
  }

 private:
  friend class PacketRef;
  static constexpr std::size_t kChunk = 64;

  void grow() {
    chunks_.push_back(std::make_unique<PooledPacket[]>(kChunk));
    PooledPacket* chunk = chunks_.back().get();
    // Chain in reverse so allocation hands out slots in address order.
    for (std::size_t i = kChunk; i-- > 0;) {
      chunk[i].pool = this;
      chunk[i].next_free = free_;
      free_ = &chunk[i];
    }
  }

  void put_back(PooledPacket* p) noexcept {
    p->pkt.payload.reset();  // drop the protocol message promptly
    p->next_free = free_;
    free_ = p;
    --live_;
  }

  std::vector<std::unique_ptr<PooledPacket[]>> chunks_;
  PooledPacket* free_ = nullptr;
  std::size_t live_ = 0;
};

inline void PacketRef::release() noexcept {
  if (p_ != nullptr && --p_->refs == 0) p_->pool->put_back(p_);
}

}  // namespace puno::noc

// Flit representation for the on-chip network.
//
// All flits of a packet share it through a pooled PacketRef (see
// packet_pool.hpp): copying a flit costs one non-atomic increment, and the
// packet storage is recycled through a free-list arena instead of the heap.
//
// A flit carries no timing. The router pipeline delay is served before the
// flit reaches its router's input buffer (mesh.hpp), so every buffered flit
// may switch at once, and a flit is 16 bytes: the handle plus two flags.
#pragma once

#include "noc/packet.hpp"
#include "noc/packet_pool.hpp"
#include "sim/types.hpp"

namespace puno::noc {

struct Flit {
  PacketRef packet;    ///< All flits of a packet share it.
  bool is_head = false;
  bool is_tail = false;
};
static_assert(sizeof(Flit) == 16, "a flit is its packet handle + 2 flags");

}  // namespace puno::noc

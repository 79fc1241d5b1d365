// Flit representation for the on-chip network.
//
// A flit is an 8-byte value: its packet's arena slot (packet_pool.hpp), the
// packet's destination and vnet (all a router reads) and the head/tail
// bits. It owns nothing, so VC rings, the link stage and the injection
// lists copy it, and VC allocation never loads the packet.
//
// A flit carries no timing. The router pipeline delay is served before the
// flit reaches its router's input buffer (mesh.hpp), so every buffered flit
// may switch at once.
#pragma once

#include <cstdint>
#include <type_traits>

#include "noc/packet.hpp"
#include "sim/types.hpp"

namespace puno::noc {

struct Flit {
  std::uint32_t packet = 0;    ///< The packet's arena slot (PacketPool::Id).
  NodeId dst = kInvalidNode;   ///< The packet's destination node.
  VNet vnet = VNet::kRequest;  ///< The packet's virtual network.
  bool is_head : 1 = false;
  bool is_tail : 1 = false;
};
static_assert(sizeof(Flit) == 8, "a flit is a slot id, dst, vnet, 2 bits");
static_assert(std::is_trivially_copyable_v<Flit>, "a flit is a plain value");

}  // namespace puno::noc

// Packet representation for the on-chip network.
//
// The NoC is payload-agnostic: a packet carries its sender's payload as an
// untyped shared pointer, and the node handler it is delivered to knows
// what the pointer holds (arch::Cmp's handlers read a coherence::Message).
// The network moves packets as wormhole-routed flit trains. A control
// message fits in one flit; a 64-byte data-carrying message needs 1 head +
// 4 body flits at the 16-byte channel width of Table II.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/types.hpp"

namespace puno::noc {

/// Virtual network a packet travels on. Separating request, forward and
/// response traffic onto disjoint VC sets breaks protocol-level deadlock
/// cycles (request→forward→response dependency chain).
enum class VNet : std::uint8_t { kRequest = 0, kForward = 1, kResponse = 2 };

struct Packet {
  std::uint64_t id = 0;            ///< Unique per-network packet id.
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  VNet vnet = VNet::kRequest;
  std::uint32_t num_flits = 1;     ///< Head + body flits.
  Cycle injected_at = 0;
  std::shared_ptr<const void> payload;
};

}  // namespace puno::noc

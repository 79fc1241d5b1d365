// Coherence protocol message vocabulary.
//
// The protocol is a blocking, MESI, SGI-Origin-style directory protocol (the
// family the paper's baseline HTM piggybacks on), extended with the NACK
// semantics eager HTMs add and with the three PUNO message extensions of
// Figure 7:
//   * GETX/INV gains a U-bit (unicast),
//   * NACK gains a notification field (nacker's estimated remaining cycles)
//     and an MP-bit (misprediction feedback),
//   * UNBLOCK gains an MP-bit and MP-node field.
// None of these extensions adds flits: control messages stay single-flit.
//
// A Message is plain data. Every message sent is built by make_message(),
// and two protocol rules are written once here, beside it:
//   * forward_of(): a home's forward (FwdGetS, or an Inv to the owner, to
//     each multicast sharer or to the predicted unicast destination) copies
//     the request's block, requester, `transactional` bit and `ts`, which
//     the receiver's conflict check reads (Section II.B);
//   * reply_to(): a reply to a forward (Data, Ack or Nack, the writeback
//     buffer's answers included) goes to the forward's requester and names
//     its block.
// The NoC carries a message as an untyped payload; arch::Cmp alone turns a
// message into a packet (vnet_of, wire size) and a delivered packet back
// into a message for the tile's directory or L1.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "coherence/sharer_set.hpp"
#include "noc/packet.hpp"
#include "sim/types.hpp"

namespace puno::coherence {

/// Bit for node `n` in a sharer bitmask.
[[nodiscard]] constexpr std::uint64_t node_bit(NodeId n) noexcept {
  return 1ull << n;
}

enum class MsgType : std::uint8_t {
  // Requests: L1 -> home directory (virtual network 0).
  kGetS,     ///< Read (shared) access.
  kGetX,     ///< Write (exclusive) access; also upgrades from S.
  kPutX,     ///< Writeback of a dirty line.
  // Forwards: directory -> L1 (virtual network 1).
  kFwdGetS,  ///< Forwarded read request to the exclusive owner.
  kInv,      ///< Invalidation (forwarded GETX) to a sharer / owner.
  kWbAck,    ///< Writeback accepted.
  kWbStale,  ///< Writeback crossed a forward in flight; drop it.
  // Responses (virtual network 2).
  kData,      ///< Cache line data (from home or owner).
  kRetryHint, ///< Extension: a nacker finished; the waiter may retry now.
  kAck,       ///< Invalidation acknowledged.
  kNack,      ///< Negative acknowledgement: conflict, request rejected.
  kUnblock,   ///< Requester -> home: transaction on the line is complete.
  kWbData,    ///< Owner -> home: dirty data accompanying a downgrade.
};

[[nodiscard]] constexpr const char* to_string(MsgType t) noexcept {
  switch (t) {
    case MsgType::kGetS: return "GetS";
    case MsgType::kGetX: return "GetX";
    case MsgType::kPutX: return "PutX";
    case MsgType::kFwdGetS: return "FwdGetS";
    case MsgType::kInv: return "Inv";
    case MsgType::kWbAck: return "WbAck";
    case MsgType::kWbStale: return "WbStale";
    case MsgType::kData: return "Data";
    case MsgType::kRetryHint: return "RetryHint";
    case MsgType::kAck: return "Ack";
    case MsgType::kNack: return "Nack";
    case MsgType::kUnblock: return "Unblock";
    case MsgType::kWbData: return "WbData";
  }
  return "?";
}

/// True for message types that carry a full cache line (head + body flits).
[[nodiscard]] constexpr bool carries_data(MsgType t) noexcept {
  return t == MsgType::kData || t == MsgType::kWbData || t == MsgType::kPutX;
}

struct Message {
  MsgType type = MsgType::kGetS;
  BlockAddr addr = 0;
  NodeId sender = kInvalidNode;     ///< Node emitting this message.
  NodeId requester = kInvalidNode;  ///< Original requester of the operation.

  // --- HTM conflict-detection fields (Section II.B) ---
  bool transactional = false;  ///< Request issued from inside a transaction.
  Timestamp ts = kInvalidTimestamp;  ///< Requester's transaction timestamp.

  // --- Response bookkeeping ---
  /// On kData: how many Ack/Nack responses the requester must still collect.
  std::uint32_t expected_responses = 0;
  bool exclusive = false;  ///< kData grants E/M instead of S.
  bool success = false;    ///< kUnblock: the request completed (vs. nacked).
  /// kUnblock after a failed GETX: sharers that nacked and therefore keep
  /// their copy. Exact, whatever the directory's sharer encoding — the wire
  /// carries real node ids.
  SharerSet surviving_sharers;
  /// kAck: the responder aborted its transaction to honour the invalidation.
  /// Physically one bit; used for false-abort accounting (Figures 2 and 3).
  bool responder_aborted = false;
  /// Forwards: the receiver is the only node being forwarded to, so its
  /// response fully resolves the request (owner forwards and PUNO unicasts).
  /// Responses: echo of the same bit, telling the requester not to wait for
  /// further responses or data.
  bool sole = false;
  /// kData: false for a permission-upgrade grant that carries no cache line
  /// (the requester already holds the data in S); such grants are
  /// single-flit control messages.
  bool has_payload = true;

  // --- PUNO message extensions (Figure 7) ---
  bool u_bit = false;    ///< kInv/kFwdGetS: this forward is a predicted unicast
  bool mp_bit = false;   ///< kNack/kUnblock: unicast destination mispredicted.
  NodeId mp_node = kInvalidNode;  ///< kUnblock: the mispredicted sharer.
  /// kNack: nacker's estimated remaining running time in cycles (Section
  /// III.D). Zero means "no estimate".
  Cycle notification = 0;
  /// Requests: requester's current average transaction length (drives the
  /// adaptive timeout of the P-Buffer validity mechanism, Section III.B).
  Cycle avg_txn_len = 0;
};
static_assert(!std::is_polymorphic_v<Message>, "a message is plain data");
static_assert(sizeof(Message) == 96, "a message's host size is pinned");

/// Builds a message; every message sent is built here. Every field but the
/// four routing ones starts at its default.
[[nodiscard]] inline std::shared_ptr<Message> make_message(MsgType type,
                                                           BlockAddr addr,
                                                           NodeId sender,
                                                           NodeId requester) {
  auto m = std::make_shared<Message>();
  m->type = type;
  m->addr = addr;
  m->sender = sender;
  m->requester = requester;
  return m;
}

/// The forward rule: home `home`'s `type` forward (FwdGetS or Inv) of
/// request `req` carries the request's block, requester, transactional bit
/// and timestamp.
[[nodiscard]] inline std::shared_ptr<Message> forward_of(const Message& req,
                                                         MsgType type,
                                                         NodeId home) {
  assert(type == MsgType::kFwdGetS || type == MsgType::kInv);
  auto m = make_message(type, req.addr, home, req.requester);
  m->transactional = req.transactional;
  m->ts = req.ts;
  return m;
}

/// The reply rule: `responder`'s `type` reply (Data, Ack or Nack) to
/// forward `fwd` names the forward's block and goes to the forward's
/// requester, which the reply carries as its own `requester`.
[[nodiscard]] inline std::shared_ptr<Message> reply_to(const Message& fwd,
                                                       MsgType type,
                                                       NodeId responder) {
  assert(type == MsgType::kData || type == MsgType::kAck ||
         type == MsgType::kNack);
  return make_message(type, fwd.addr, responder, fwd.requester);
}

/// Virtual-network assignment by message class (request / forward / response)
[[nodiscard]] constexpr noc::VNet vnet_of(MsgType t) noexcept {
  switch (t) {
    case MsgType::kGetS:
    case MsgType::kGetX:
    case MsgType::kPutX:
      return noc::VNet::kRequest;
    case MsgType::kFwdGetS:
    case MsgType::kInv:
    case MsgType::kWbAck:
    case MsgType::kWbStale:
      return noc::VNet::kForward;
    case MsgType::kData:
    case MsgType::kAck:
    case MsgType::kNack:
    case MsgType::kUnblock:
    case MsgType::kWbData:
    case MsgType::kRetryHint:
      return noc::VNet::kResponse;
  }
  return noc::VNet::kResponse;
}

}  // namespace puno::coherence

// Protocol invariants verified by the runtime oracle (src/check).
//
// Each invariant is a cross-layer consistency property that must hold at
// every post-cycle boundary — after all tickables and events of a cycle have
// run, the machine is in an architecturally meaningful state and anything
// still "in motion" is explicitly accounted (busy directory entries, the
// writeback buffer, flits in the mesh's link stage). The checker
// never fires on legal transient protocol windows; see docs/INVARIANTS.md
// for the per-invariant transient analysis and the paper sections each
// property is grounded in.
#pragma once

#include <cstdint>
#include <string>

#include "sim/types.hpp"

namespace puno::check {

enum class InvariantId : std::uint8_t {
  /// A directory entry is internally consistent with its own state tag:
  /// kI has no sharers and no owner, kS has sharers and no owner, kEM has
  /// an owner and no sharers; the busy-entry count matches the entry flags.
  kDirState,
  /// Directory and L1 states agree: an L1 holding E/M is the registered
  /// owner (or the entry is busy / a writeback is in flight); a non-busy
  /// kEM entry's owner actually holds the line; an L1 holding S appears in
  /// the (stale-inclusive) sharer list.
  kDirL1,
  /// The PUNO unicast-destination pointer names a current sharer (kS), the
  /// owner (kEM), or nobody (kI) — a stale UD is exactly the mismatch
  /// pathology the paper's Section III.B prediction machinery must avoid.
  kUdPointer,
  /// Every block in a live transaction's read set is present (pinned) in
  /// its L1, and every write-set block is present in M — the eager HTM's
  /// conflict detection is only sound while the sets stay cached.
  kTxnPin,
  /// NoC flit conservation: flits injected == flits ejected + flits riding
  /// links + flits buffered in routers, every cycle; and when the mesh is
  /// idle, every protocol message handed to send() has been delivered.
  kNocConservation,
};

inline constexpr InvariantId kAllInvariants[] = {
    InvariantId::kDirState,   InvariantId::kDirL1,
    InvariantId::kUdPointer,  InvariantId::kTxnPin,
    InvariantId::kNocConservation,
};

[[nodiscard]] constexpr const char* to_string(InvariantId id) noexcept {
  switch (id) {
    case InvariantId::kDirState: return "DIR-STATE";
    case InvariantId::kDirL1: return "DIR-L1";
    case InvariantId::kUdPointer: return "UD-POINTER";
    case InvariantId::kTxnPin: return "TXN-PIN";
    case InvariantId::kNocConservation: return "NOC-CONSERVATION";
  }
  return "?";
}

/// One detected invariant violation, with enough context to name the cycle,
/// node and block in a repro report.
struct Violation {
  InvariantId id = InvariantId::kDirState;
  Cycle cycle = 0;
  NodeId node = kInvalidNode;   ///< Node the violating state lives on.
  BlockAddr addr = 0;           ///< Block involved (0 for global properties).
  std::string detail;           ///< Human-readable specifics.
};

/// "[UD-POINTER] cycle 1234 node 3 block 0x1c0: ..." — the line test
/// failures and fuzz reports print.
[[nodiscard]] std::string format_violation(const Violation& v);

/// Which invariants to run and how often.
struct CheckerConfig {
  /// Check every `stride` cycles (1 = every cycle). The fuzz driver runs
  /// with a coarse stride for speed and re-runs failures at stride 1 to
  /// pin down the first failing cycle.
  std::uint32_t stride = 16;
  bool dir_state = true;
  bool dir_l1 = true;
  bool ud_pointer = true;
  bool txn_pin = true;
  bool noc_conservation = true;
  /// Stop recording after this many violations (the first is what matters;
  /// a corrupted machine can emit thousands per cycle).
  std::size_t max_violations = 16;

  [[nodiscard]] bool enabled(InvariantId id) const noexcept {
    switch (id) {
      case InvariantId::kDirState: return dir_state;
      case InvariantId::kDirL1: return dir_l1;
      case InvariantId::kUdPointer: return ud_pointer;
      case InvariantId::kTxnPin: return txn_pin;
      case InvariantId::kNocConservation: return noc_conservation;
    }
    return false;
  }
  void set_enabled(InvariantId id, bool on) noexcept {
    switch (id) {
      case InvariantId::kDirState: dir_state = on; break;
      case InvariantId::kDirL1: dir_l1 = on; break;
      case InvariantId::kUdPointer: ud_pointer = on; break;
      case InvariantId::kTxnPin: txn_pin = on; break;
      case InvariantId::kNocConservation: noc_conservation = on; break;
    }
  }
  [[nodiscard]] static CheckerConfig none() noexcept {
    CheckerConfig c;
    for (InvariantId id : kAllInvariants) c.set_enabled(id, false);
    return c;
  }
};

}  // namespace puno::check

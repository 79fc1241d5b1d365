// Interfaces through which the coherence layer consults the transaction
// layer (HTM) and the directory-side predictor (PUNO).
//
// The coherence protocol itself has no notion of transactions — exactly the
// mismatch the paper describes. All transactional behaviour is injected
// through these two interfaces: TxnHooks at the L1s (conflict detection,
// Section II.B) and DirectoryAssist at the directories (PUNO's predictive
// unicast, Section III.B).
#pragma once

#include <cstdint>

#include "coherence/sharer_set.hpp"
#include "sim/types.hpp"

namespace puno::coherence {

/// What a node decides to do with an incoming forwarded request that may
/// conflict with its running transaction.
enum class ConflictDecision : std::uint8_t {
  kGrant,            ///< No conflict: service the request normally.
  kGrantAfterAbort,  ///< Conflict, local transaction younger: abort it, then
                     ///< service the request (Section II.B).
  kNack,             ///< Conflict, local transaction older: reject.
};

/// Verdict returned by the transaction layer for a forwarded request.
struct ConflictVerdict {
  ConflictDecision decision = ConflictDecision::kGrant;
  /// Attached to a NACK under PUNO: estimated remaining running time of the
  /// local (nacker) transaction, in cycles (Section III.D). 0 = no estimate.
  Cycle notification = 0;
  /// The request carried the U-bit but the local transaction does NOT
  /// out-prioritize the requester: unicast-destination misprediction
  /// (Section III.C). Always reported together with kNack.
  bool mispredicted = false;
};

/// Per-node transaction-layer hooks, implemented by htm::TxnContext.
class TxnHooks {
 public:
  virtual ~TxnHooks() = default;

  /// Conflict check for a remote request to `addr` (write if `write`),
  /// issued by `requester` with transaction timestamp `ts` (kInvalidTimestamp
  /// if non-transactional). `u_bit` marks a PUNO unicast forward.
  /// If the verdict is kGrantAfterAbort the implementation has already
  /// initiated the local abort when this returns.
  [[nodiscard]] virtual ConflictVerdict on_remote_request(BlockAddr addr,
                                                          bool write,
                                                          Timestamp ts,
                                                          NodeId requester,
                                                          bool u_bit) = 0;

  /// True if `addr` is in the running transaction's read or write set, i.e.
  /// the L1 must not silently evict it.
  [[nodiscard]] virtual bool is_txn_line(BlockAddr addr) const = 0;

  /// The L1 is forced to evict a transactional line (all ways pinned):
  /// overflow abort of the local transaction.
  virtual void on_overflow_eviction(BlockAddr addr) = 0;

  /// Cycles the requester should wait before re-issuing a nacked request.
  /// `notification` is the nacker's estimate (0 if none was provided).
  [[nodiscard]] virtual Cycle retry_backoff(Cycle notification,
                                            std::uint32_t retries) = 0;

  /// Outcome report for a completed transactional GETX (success or final
  /// failure of one issue), used for false-abort accounting (Figures 2-3)
  /// and RMW-predictor training.
  virtual void on_getx_outcome(BlockAddr addr, bool success,
                               std::uint32_t nacks,
                               std::uint32_t aborted_sharers) = 0;

  /// Current transaction timestamp (kInvalidTimestamp when not in one).
  [[nodiscard]] virtual Timestamp current_ts() const = 0;

  /// This node's running average transaction length (TxLB-derived), carried
  /// on requests to drive the directories' adaptive validity timeout.
  [[nodiscard]] virtual Cycle avg_txn_len() const = 0;
};

/// Directory-side assist, implemented by puno::PunoDirectory. A null
/// implementation (never unicast) yields the baseline protocol.
class DirectoryAssist {
 public:
  virtual ~DirectoryAssist() = default;

  /// Observes an incoming transactional request: refresh the P-Buffer entry
  /// for `src` with priority `ts` (Section III.B) and fold `avg_txn_len`
  /// into the adaptive timeout period.
  virtual void observe_request(NodeId src, Timestamp ts, Cycle avg_txn_len) = 0;

  /// Unicast-destination prediction for a transactional GETX from
  /// `requester` (timestamp `req_ts`) to a line shared by `sharers` (the
  /// directory entry's possibly lossy sharer list, requester removed).
  /// `ud_hint` is the entry's UD pointer. Returns the sharer to unicast
  /// to, or kInvalidNode to multicast.
  [[nodiscard]] virtual NodeId predict_unicast(const SharerSet& sharers,
                                               NodeId requester,
                                               Timestamp req_ts,
                                               NodeId ud_hint) = 0;

  /// Recomputes a directory entry's UD pointer: the member of `sharers`
  /// with the highest P-Buffer priority. Called off the critical path, after
  /// a service completes. `sharers` may be the entry's own (lossy) sharer
  /// list; listed nodes that hold no copy are acceptable UD targets — the
  /// misprediction feedback path corrects them.
  [[nodiscard]] virtual NodeId recompute_ud(const SharerSet& sharers) = 0;

  /// Misprediction feedback from an UNBLOCK (MP-bit set): invalidate the
  /// stale priority of `mp_node` (Section III.C).
  virtual void on_misprediction(NodeId mp_node) = 0;

  /// Extra directory occupancy (cycles) for the prediction: 1 cycle P-Buffer
  /// access + 1 cycle unicast decision (Section IV.A). 0 for the baseline.
  [[nodiscard]] virtual Cycle prediction_latency() const = 0;
};

}  // namespace puno::coherence

// Pluggable per-scheme conflict management (the ConflictManager framework).
//
// Everything scheme-specific that used to be dispatched on `Scheme::`
// switches inside TxnContext and Cmp lives behind this interface: the
// resolution of a racing conflicting request, the two backoff policies
// (nacked-requester retry and abort restart), timestamp assignment, RMW
// exclusive-load prediction, architectural set-capacity admission, the
// PUNO notification payload, and commit/abort bookkeeping. TxnContext owns
// exactly one manager, created from the registry (make_conflict_manager)
// keyed by SystemConfig::scheme; the protocol and the core call only the
// hooks.
//
// The four pre-existing schemes (Baseline, Backoff, RMW-Pred, PUNO) are
// bit-identical to their pre-framework implementations — the golden suite
// (tests/integration/golden_identity_test.cpp) pins result JSONL, the full
// stats registry, traces and abort attribution byte-for-byte. To keep the
// stats registry identical, scheme-specific counters are registered lazily
// in the concrete manager's constructor, never in TxnContext.
//
// docs/SCHEMES.md describes the six schemes and their resolution matrices.
#pragma once

#include <cstdint>
#include <memory>

#include "coherence/hooks.hpp"
#include "sim/config.hpp"
#include "sim/types.hpp"

namespace puno::sim {
class Kernel;
class Rng;
}  // namespace puno::sim

namespace puno::htm {

class TxnContext;
enum class AbortCause : std::uint8_t;

/// Timestamp tag bit used by the fallback-capable schemes (RequesterWins,
/// LimitedSet): set on every ordinary speculative attempt, clear on a
/// fallback/serialized attempt. Under the plain "smaller timestamp wins"
/// comparison a fallback attempt therefore dominates every speculative one
/// (including non-transactional requesters, whose kInvalidTimestamp also
/// carries the bit) while concurrent fallback attempts still order among
/// themselves by age — no message format or protocol hook changes needed.
/// The legacy schemes never set the bit: their timestamps are small cycle
/// products, far below bit 62.
inline constexpr Timestamp kSpeculativeTsBit = Timestamp{1} << 62;

/// Per-node conflict-management policy. One instance per TxnContext, bound
/// to it right after construction; hooks may read/mutate the transaction's
/// state through the protected accessors (ConflictManager is a friend of
/// TxnContext, so scheme implementations cannot bypass this surface).
///
/// The base-class defaults implement the legacy time-based policy [Rajwar &
/// Goodman]: older (smaller timestamp) wins, timestamps retained across
/// retries, fixed nacked-requester backoff, no restart backoff — so
/// BaselineManager is the trivial subclass and every other scheme overrides
/// only what it changes.
class ConflictManager {
 public:
  ConflictManager(sim::Kernel& kernel, const SystemConfig& cfg, NodeId node)
      : kernel_(kernel), cfg_(cfg), node_(node) {}
  virtual ~ConflictManager() = default;

  ConflictManager(const ConflictManager&) = delete;
  ConflictManager& operator=(const ConflictManager&) = delete;

  /// Called once by the owning TxnContext before any hook.
  void bind(TxnContext& txn) noexcept { txn_ = &txn; }

  [[nodiscard]] virtual Scheme scheme() const noexcept = 0;

  /// Whether each home directory runs a PUNO assist (P-Buffer + predictive
  /// unicast). Queried by Cmp (and the protocol test fixture) at
  /// construction time.
  [[nodiscard]] virtual bool wants_directory_assist() const noexcept {
    return false;
  }

  /// Timestamp for a fresh dynamic instance beginning at `now` (smaller =
  /// older = higher priority). Also the scheme's new-instance reset point:
  /// fallback/serial modes of the previous instance end here.
  [[nodiscard]] virtual Timestamp fresh_timestamp(Cycle now) {
    return now * cfg_.num_nodes + node_;
  }

  /// Timestamp carried into the retry of an aborted instance. The legacy
  /// policy retains it unchanged so the transaction ages into the highest
  /// priority (starvation freedom); fallback schemes may re-tag it here.
  [[nodiscard]] virtual Timestamp retry_timestamp(Timestamp prev) {
    return prev;
  }

  /// Resolution for a racing remote request that conflicts with the local
  /// sets: kGrantAfterAbort = the local transaction loses (the caller
  /// aborts it and grants), kNack = the requester must retry. Never kGrant
  /// — a conflict cannot be ignored. Must not mutate transaction state
  /// (the caller performs the abort so trace emission stays in one place).
  [[nodiscard]] virtual coherence::ConflictDecision resolve(BlockAddr addr,
                                                            bool write,
                                                            Timestamp req_ts);

  /// Payload attached to a NACK: the estimated remaining running time of
  /// the local transaction (PUNO's notification, Section III.D); 0 = none.
  [[nodiscard]] virtual Cycle nack_notification() { return 0; }

  /// RMW prediction: should the transactional load at `pc` fetch exclusive?
  [[nodiscard]] virtual bool load_exclusive(std::uint64_t pc) {
    (void)pc;
    return false;
  }

  /// Whether load_exclusive reads the RMW predictor. The owning TxnContext
  /// allocates and trains a predictor only when it does.
  [[nodiscard]] virtual bool reads_rmw_predictor() const noexcept {
    return false;
  }

  /// Architectural set-capacity admission, consulted before `block` is
  /// recorded into the read/write set. Returning false aborts the attempt
  /// through the overflow path (trace event + kOverflow cause).
  [[nodiscard]] virtual bool admit_access(BlockAddr block, bool write) {
    (void)block;
    (void)write;
    return true;
  }

  /// Wait before the L1 re-issues a nacked transactional request.
  /// `notification` is the nacker's estimate delivered with the NACK.
  [[nodiscard]] virtual Cycle retry_backoff(Cycle notification,
                                            std::uint32_t retries);

  /// Wait before the core re-runs an aborted attempt, on top of the fixed
  /// abort-recovery latency.
  [[nodiscard]] virtual Cycle restart_backoff() { return 0; }

  /// Bookkeeping hooks. The transaction's own accounting (commit/abort
  /// counters, cycle attribution, set teardown) stays in TxnContext; these
  /// are for scheme-internal state and scheme-specific counters only.
  virtual void on_commit() {}
  virtual void on_abort(AbortCause cause) { (void)cause; }

 protected:
  // --- Accessors into the bound TxnContext (its friend). Defined in the
  // .cpp so this header needs only a forward declaration. ---
  [[nodiscard]] sim::Rng& rng() noexcept;
  [[nodiscard]] Timestamp local_ts() const noexcept;
  [[nodiscard]] std::uint32_t attempt_aborts() const noexcept;
  [[nodiscard]] Cycle estimate_remaining() const;
  [[nodiscard]] Cycle avg_c2c_latency() const noexcept;
  [[nodiscard]] bool rmw_predicts_exclusive(std::uint64_t pc) const;
  [[nodiscard]] std::size_t read_set_size() const noexcept;
  [[nodiscard]] std::size_t write_set_size() const noexcept;
  [[nodiscard]] bool in_read_set(BlockAddr block) const;
  [[nodiscard]] bool in_write_set(BlockAddr block) const;
  /// Samples the htm.backoff_cycles histogram (dashboard latency panels).
  void sample_backoff(Cycle wait);
  /// Counts an htm.notified_backoffs (PUNO took the notification path).
  void count_notified_backoff();

  /// Randomized linear backoff [Scherer & Scott]: the contention window
  /// grows linearly with the number of aborts this attempt has suffered.
  /// Shared by the Backoff and RequesterWins schemes.
  [[nodiscard]] Cycle randomized_linear_backoff();

  sim::Kernel& kernel_;
  const SystemConfig& cfg_;
  NodeId node_;
  TxnContext* txn_ = nullptr;
};

/// Registry: the manager implementing `cfg.scheme`. Covers every value in
/// kAllSchemes; a new scheme is added by extending PUNO_SCHEME_LIST and
/// this factory.
[[nodiscard]] std::unique_ptr<ConflictManager> make_conflict_manager(
    sim::Kernel& kernel, const SystemConfig& cfg, NodeId node);

}  // namespace puno::htm

// Per-node transaction context: the HTM's architectural state.
//
// Models a log-based, eager-versioning / eager-conflict-detection HTM in the
// LogTM family with FASTM-style fast abort recovery (Section IV.A):
//
//   * read/write sets at cache-block granularity, kept as one record per
//     block the transaction touched (a writer is implicitly a reader, so
//     the read set is every recorded block and the write set the written
//     ones);
//   * the time-based conflict-resolution policy [Rajwar & Goodman]: each
//     transaction carries a timestamp, older (smaller) wins, and the
//     timestamp is retained across aborts so every transaction eventually
//     becomes the oldest and commits (starvation freedom);
//   * the conflict rule of Section II.B: an incoming request that touches
//     the local sets is NACKed if the local transaction is older, otherwise
//     the local transaction aborts itself and grants;
//   * scheme-dependent contention management, delegated to the node's
//     ConflictManager (src/htm/conflict_manager.hpp): resolution, backoff,
//     timestamp and admission policy all come from the scheme registry.
//
// It also owns the false-abort accounting that Figures 2 and 3 report: a
// transactional GETX that collected at least one NACK plus at least one
// "I aborted" ACK is a false-aborting request, and every such abort was
// unnecessary.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "coherence/hooks.hpp"
#include "htm/conflict_manager.hpp"
#include "htm/rmw_predictor.hpp"
#include "htm/txlb.hpp"
#include "sim/config.hpp"
#include "sim/kernel.hpp"
#include "sim/rng.hpp"

namespace puno::coherence {
class L1Controller;
}

namespace puno::htm {

enum class AbortCause : std::uint8_t {
  kRemoteWrite,  ///< Invalidation from a remote transactional GETX.
  kRemoteRead,   ///< Forwarded GETS hit our write set.
  kOverflow,     ///< L1 set conflict forced a transactional line out.
};

class TxnContext final : public coherence::TxnHooks {
 public:
  TxnContext(sim::Kernel& kernel, const SystemConfig& cfg, NodeId node,
             Cycle avg_c2c_latency);

  TxnContext(const TxnContext&) = delete;
  TxnContext& operator=(const TxnContext&) = delete;

  void attach_l1(coherence::L1Controller* l1) noexcept { l1_ = l1; }

  /// Commit-hint extension wiring: callback that delivers a RetryHint for
  /// `addr` to a waiting requester node (see PunoConfig::enable_commit_hint)
  using HintSender = std::function<void(NodeId, BlockAddr)>;
  void set_hint_sender(HintSender sender) {
    send_hint_ = std::move(sender);
  }

  // --- Core-facing transaction interface ---

  /// Starts (or restarts after an abort) a dynamic instance of static
  /// transaction `id`. The timestamp is fresh for a first attempt and
  /// retained across aborts of the same instance.
  void begin(StaticTxId id);

  /// Commits the running transaction: clears the sets, trains the TxLB,
  /// accumulates good transactional cycles.
  void commit();

  [[nodiscard]] bool in_txn() const noexcept { return in_txn_; }
  /// True if the running attempt has been aborted (by a remote conflict or
  /// overflow) and the core must roll back to begin().
  [[nodiscard]] bool aborted() const noexcept { return aborted_; }
  [[nodiscard]] std::uint32_t attempt_aborts() const noexcept {
    return attempt_aborts_;
  }

  // --- per-tile telemetry counters (cumulative over the run) ---
  // Plain members, never registered in the stats registry, so stats dumps
  // stay byte-identical whether or not a sampler reads them. The spatial
  // telemetry channels (docs/TELEMETRY.md) difference these per window.
  /// Aborts suffered by this tile's core (victim-attributed).
  [[nodiscard]] std::uint64_t tile_aborts() const noexcept {
    return tile_aborts_;
  }
  /// False-abort events this tile's core *caused* as the failed requester
  /// (requester-attributed, matching htm.false_abort_events).
  [[nodiscard]] std::uint64_t tile_false_aborts() const noexcept {
    return tile_false_aborts_;
  }

  /// Scheme-dependent delay before re-running an aborted transaction,
  /// *excluding* the fixed abort-recovery latency (randomized linear backoff
  /// for the Backoff scheme [17], zero otherwise).
  [[nodiscard]] Cycle restart_backoff();

  /// Records a completed transactional access into the read/write set and,
  /// if the scheme reads it, trains the RMW predictor.
  void on_access(Addr addr, bool write, std::uint64_t pc);

  /// RMW predictor consultation: should the load at `pc` fetch exclusive?
  [[nodiscard]] bool should_load_exclusive(std::uint64_t pc) const;

  /// The scheme policy object driving this context (from the registry).
  [[nodiscard]] const ConflictManager& conflict_manager() const noexcept {
    return *mgr_;
  }

  // --- coherence::TxnHooks ---
  [[nodiscard]] coherence::ConflictVerdict on_remote_request(
      BlockAddr addr, bool write, Timestamp ts, NodeId requester,
      bool u_bit) override;
  [[nodiscard]] bool is_txn_line(BlockAddr addr) const override;
  void on_overflow_eviction(BlockAddr addr) override;
  [[nodiscard]] Cycle retry_backoff(Cycle notification,
                                    std::uint32_t retries) override;
  void on_getx_outcome(BlockAddr addr, bool success, std::uint32_t nacks,
                       std::uint32_t aborted_sharers) override;
  [[nodiscard]] Timestamp current_ts() const override { return ts_; }
  [[nodiscard]] Cycle avg_txn_len() const override {
    return txlb_.overall_average();
  }

  // --- Introspection ---
  [[nodiscard]] const TxLB& txlb() const noexcept { return txlb_; }
  /// The RMW predictor, or null under a scheme whose ConflictManager does
  /// not read it (every scheme but kRmwPred).
  [[nodiscard]] const RmwPredictor* rmw_predictor() const noexcept {
    return rmw_ ? &*rmw_ : nullptr;
  }
  [[nodiscard]] std::size_t read_set_size() const noexcept {
    return blocks_.size();
  }
  [[nodiscard]] std::size_t write_set_size() const noexcept {
    return written_blocks_;
  }
  /// True if `block` is in the write set.
  [[nodiscard]] bool in_write_set(BlockAddr block) const {
    const auto it = blocks_.find(block);
    return it != blocks_.end() && it->second.written;
  }
  /// Visits every read-set block (the write set's included), in no fixed
  /// order: fn(BlockAddr, bool written).
  template <typename Fn>
  void for_each_block(Fn&& fn) const {
    for (const auto& [block, rec] : blocks_) fn(block, rec.written);
  }

 private:
  /// Scheme policies read/mutate transaction state only through the
  /// ConflictManager accessor surface.
  friend class ConflictManager;

  void abort(AbortCause cause);
  /// Empties the read/write sets (commit and abort).
  void clear_blocks();
  /// Remembers a requester this transaction just nacked (commit-hint
  /// extension), bounded by commit_hint_entries.
  void remember_waiter(NodeId requester, BlockAddr addr);
  /// Transaction finished (commit or abort): wake every remembered waiter.
  void flush_waiters();
  /// Estimated remaining running time of the current transaction, from the
  /// TxLB average minus cycles already executed (Section III.D).
  [[nodiscard]] Cycle estimate_remaining() const;

  sim::Kernel& kernel_;
  const SystemConfig& cfg_;
  NodeId node_;
  Cycle avg_c2c_latency_;
  coherence::L1Controller* l1_ = nullptr;
  sim::Rng rng_;

  bool in_txn_ = false;
  bool aborted_ = false;
  Timestamp ts_ = kInvalidTimestamp;
  StaticTxId static_id_ = 0;
  Cycle attempt_begin_ = 0;
  std::uint32_t attempt_aborts_ = 0;  ///< Aborts of the current instance.
  std::uint64_t tile_aborts_ = 0;        ///< Run-total aborts (this tile).
  std::uint64_t tile_false_aborts_ = 0;  ///< Run-total false-abort events.

  /// What the running transaction did to one block.
  struct BlockRecord {
    bool written = false;
    bool loaded = false;  ///< A load completed; `load_pc` is the first's.
    std::uint64_t load_pc = 0;  ///< RMW-predictor training key.
  };
  /// Every block the running transaction touched; cleared by commit and
  /// abort.
  std::unordered_map<BlockAddr, BlockRecord> blocks_;
  std::size_t written_blocks_ = 0;  ///< Records with `written` set.

  TxLB txlb_;
  /// Allocated and trained only if the ConflictManager reads it.
  std::optional<RmwPredictor> rmw_;
  HintSender send_hint_;
  std::vector<std::pair<NodeId, BlockAddr>> waiters_;

  sim::Counter& commits_;
  sim::Counter& aborts_;
  sim::Counter& aborts_by_write_;
  sim::Counter& aborts_by_read_;
  sim::Counter& aborts_overflow_;
  sim::Counter& good_cycles_;
  sim::Counter& discarded_cycles_;
  sim::Counter& false_abort_events_;
  sim::Counter& falsely_aborted_txns_;
  sim::Histogram& false_abort_multiplicity_;
  sim::Counter& notified_backoffs_;
  sim::Counter& commit_hints_sent_;
  /// Committed-attempt length and granted backoff wait distributions; feed
  /// the dashboard's p50/p90/p99 latency panels. Stats only — never read
  /// back by the simulation, so they cannot perturb behaviour.
  sim::Histogram& txn_len_cycles_;
  sim::Histogram& backoff_cycles_;

  /// Last member: scheme-specific counters (registered by some manager
  /// constructors) land in the registry after the standard ones above, which
  /// keeps the stats CSV of the four pre-framework schemes byte-identical.
  std::unique_ptr<ConflictManager> mgr_;
};

}  // namespace puno::htm

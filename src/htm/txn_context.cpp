#include "htm/txn_context.hpp"

#include <algorithm>
#include <cassert>

#include "coherence/l1_controller.hpp"
#include "trace/recorder.hpp"

namespace puno::htm {

TxnContext::TxnContext(sim::Kernel& kernel, const SystemConfig& cfg,
                       NodeId node, Cycle avg_c2c_latency)
    : kernel_(kernel),
      cfg_(cfg),
      node_(node),
      avg_c2c_latency_(avg_c2c_latency),
      rng_(cfg.seed, 0x700 + node),
      txlb_(cfg.puno.txlb_entries),
      commits_(kernel.stats().counter("htm.commits")),
      aborts_(kernel.stats().counter("htm.aborts")),
      aborts_by_write_(kernel.stats().counter("htm.aborts_by_getx")),
      aborts_by_read_(kernel.stats().counter("htm.aborts_by_gets")),
      aborts_overflow_(kernel.stats().counter("htm.aborts_overflow")),
      good_cycles_(kernel.stats().counter("htm.good_cycles")),
      discarded_cycles_(kernel.stats().counter("htm.discarded_cycles")),
      false_abort_events_(kernel.stats().counter("htm.false_abort_events")),
      falsely_aborted_txns_(
          kernel.stats().counter("htm.falsely_aborted_txns")),
      false_abort_multiplicity_(
          kernel.stats().histogram("htm.false_abort_multiplicity", 16)),
      notified_backoffs_(kernel.stats().counter("htm.notified_backoffs")),
      commit_hints_sent_(kernel.stats().counter("htm.commit_hints_sent")),
      txn_len_cycles_(kernel.stats().histogram("htm.txn_len_cycles", 256)),
      backoff_cycles_(kernel.stats().histogram("htm.backoff_cycles", 256)),
      mgr_(make_conflict_manager(kernel, cfg, node)) {
  mgr_->bind(*this);
  if (mgr_->reads_rmw_predictor()) rmw_.emplace(cfg.htm.rmw_entries);
}

void TxnContext::remember_waiter(NodeId requester, BlockAddr addr) {
  if (!cfg_.puno.enable_commit_hint || send_hint_ == nullptr) return;
  for (const auto& [node, block] : waiters_) {
    if (node == requester && block == addr) return;
  }
  if (waiters_.size() >= cfg_.puno.commit_hint_entries) {
    waiters_.erase(waiters_.begin());  // bounded hardware buffer: drop oldest
  }
  waiters_.emplace_back(requester, addr);
}

void TxnContext::flush_waiters() {
  if (waiters_.empty()) return;
  for (const auto& [node, block] : waiters_) {
    commit_hints_sent_.add();
    send_hint_(node, block);
  }
  waiters_.clear();
}

void TxnContext::begin(StaticTxId id) {
  // Either a fresh instance (no transaction running) or the restart of an
  // aborted one (in_txn_ stays set through the rollback window so that the
  // timestamp is retained).
  assert(!in_txn_ || aborted_);
  const bool retry = in_txn_ && aborted_ && static_id_ == id;
  in_txn_ = true;
  aborted_ = false;
  static_id_ = id;
  attempt_begin_ = kernel_.now();
  if (retry) {
    // A retried instance keeps (or, under a fallback scheme, re-tags) its
    // timestamp so the transaction ages into the highest priority
    // (time-base policy [11]).
    ts_ = mgr_->retry_timestamp(ts_);
  } else {
    ts_ = mgr_->fresh_timestamp(kernel_.now());
    attempt_aborts_ = 0;
  }
  PUNO_TEV(kernel_, trace::Cat::kTxn,
           (trace::TraceEvent{.cycle = kernel_.now(),
                              .ts = ts_,
                              .a = id,
                              .node = node_,
                              .kind = trace::EventKind::kTxnBegin,
                              .flags = retry ? std::uint8_t{1}
                                             : std::uint8_t{0}}));
}

void TxnContext::commit() {
  assert(in_txn_ && !aborted_);
  const Cycle len = kernel_.now() - attempt_begin_;
  PUNO_TEV(kernel_, trace::Cat::kTxn,
           (trace::TraceEvent{.cycle = kernel_.now(),
                              .ts = ts_,
                              .a = static_id_,
                              .b = len,
                              .node = node_,
                              .kind = trace::EventKind::kTxnCommit}));
  txlb_.on_commit(static_id_, len);
  good_cycles_.add(len);
  commits_.add();
  txn_len_cycles_.sample(len);
  mgr_->on_commit();

  // Negative RMW training: loads whose block was never stored in this
  // transaction were plain reads. Training down only decrements existing
  // slots, so the map's order cannot matter.
  if (rmw_) {
    for (const auto& [block, rec] : blocks_) {
      if (rec.loaded && !rec.written) rmw_->train(rec.load_pc, false);
    }
  }

  in_txn_ = false;
  ts_ = kInvalidTimestamp;
  clear_blocks();
  flush_waiters();  // commit-hint extension: the nacked requesters may retry
}

void TxnContext::abort(AbortCause cause) {
  assert(in_txn_);
  if (aborted_) return;  // already rolling back; nothing more to discard
  aborted_ = true;
  ++attempt_aborts_;
  ++tile_aborts_;
  aborts_.add();
  switch (cause) {
    case AbortCause::kRemoteWrite: aborts_by_write_.add(); break;
    case AbortCause::kRemoteRead: aborts_by_read_.add(); break;
    case AbortCause::kOverflow: aborts_overflow_.add(); break;
  }
  discarded_cycles_.add(kernel_.now() - attempt_begin_);
  mgr_->on_abort(cause);

  // Fast abort recovery (FASTM-style): pre-transaction state is restored
  // from the hardware buffer; architecturally the sets drop instantly. The
  // recovery latency is charged where it is observed (response delay at the
  // L1, restart delay at the core).
  clear_blocks();
  if (l1_ != nullptr) l1_->on_local_abort();
  flush_waiters();  // the conflicting claim is gone; waiters may retry
}

Cycle TxnContext::restart_backoff() { return mgr_->restart_backoff(); }

void TxnContext::on_access(Addr addr, bool write, std::uint64_t pc) {
  if (!in_txn_ || aborted_) return;
  const BlockAddr block = cfg_.block_of(addr);
  if (!mgr_->admit_access(block, write)) {
    // Architectural set capacity exceeded (LimitedSet): abort through the
    // same path as an L1 set-conflict eviction.
    on_overflow_eviction(block);
    return;
  }
  BlockRecord& rec = blocks_[block];  // a writer is implicitly a reader
  if (write) {
    if (!rec.written) ++written_blocks_;
    rec.written = true;
    // The load at rec.load_pc was the read half of an RMW.
    if (rmw_ && rec.loaded) rmw_->train(rec.load_pc, true);
  } else if (!rec.loaded) {
    rec.loaded = true;
    rec.load_pc = pc;
  }
}

void TxnContext::clear_blocks() {
  blocks_.clear();
  written_blocks_ = 0;
}

bool TxnContext::should_load_exclusive(std::uint64_t pc) const {
  return mgr_->load_exclusive(pc);
}

coherence::ConflictVerdict TxnContext::on_remote_request(BlockAddr addr,
                                                         bool write,
                                                         Timestamp ts,
                                                         NodeId requester,
                                                         bool u_bit) {
  const bool conflict = in_txn_ && !aborted_ &&
                        (write ? blocks_.contains(addr) : in_write_set(addr));

  if (!conflict) {
    if (u_bit) {
      // Unicast reached a node with no conflicting transaction: the P-Buffer
      // priority was stale. NACK conservatively with the MP-bit set
      // (Section III.C) — granting would leave other sharers unnotified.
      PUNO_TEV(kernel_, trace::Cat::kConflict,
               (trace::TraceEvent{
                   .cycle = kernel_.now(),
                   .addr = addr,
                   .ts = ts,
                   .b = in_txn_ && !aborted_ ? ts_ : kInvalidTimestamp,
                   .node = node_,
                   .peer = requester,
                   .kind = trace::EventKind::kNackMispredict,
                   .flags = 1}));
      return {coherence::ConflictDecision::kNack, 0, /*mispredicted=*/true};
    }
    return {coherence::ConflictDecision::kGrant, 0, false};
  }

  if (mgr_->resolve(addr, write, ts) ==
      coherence::ConflictDecision::kGrantAfterAbort) {
    // The scheme ruled for the requester (legacy policy: it is older). Under
    // a (correct) unicast we would have been predicted to win — this is a
    // misprediction; NACK conservatively without aborting.
    if (u_bit) {
      PUNO_TEV(kernel_, trace::Cat::kConflict,
               (trace::TraceEvent{.cycle = kernel_.now(),
                                  .addr = addr,
                                  .ts = ts,
                                  .b = ts_,
                                  .node = node_,
                                  .peer = requester,
                                  .kind = trace::EventKind::kNackMispredict,
                                  .flags = 1}));
      return {coherence::ConflictDecision::kNack, 0, /*mispredicted=*/true};
    }
    PUNO_TEV(kernel_, trace::Cat::kTxn,
             (trace::TraceEvent{
                 .cycle = kernel_.now(),
                 .addr = addr,
                 .ts = ts_,
                 .a = write ? trace::kAbortRemoteWrite : trace::kAbortRemoteRead,
                 .b = ts,
                 .node = node_,
                 .peer = requester,
                 .kind = trace::EventKind::kTxnAbort}));
    abort(write ? AbortCause::kRemoteWrite : AbortCause::kRemoteRead);
    return {coherence::ConflictDecision::kGrantAfterAbort, 0, false};
  }

  // The local transaction keeps the line: NACK. Under PUNO, attach the
  // estimated remaining running time so the requester can back off instead
  // of polling (Section III.D).
  remember_waiter(requester, addr);
  const Cycle note = mgr_->nack_notification();
  PUNO_TEV(kernel_, trace::Cat::kConflict,
           (trace::TraceEvent{.cycle = kernel_.now(),
                              .addr = addr,
                              .ts = ts,
                              .a = note,
                              .b = ts_,
                              .node = node_,
                              .peer = requester,
                              .kind = trace::EventKind::kNackSent,
                              .flags = write ? std::uint8_t{1}
                                             : std::uint8_t{0}}));
  return {coherence::ConflictDecision::kNack, note, false};
}

Cycle TxnContext::estimate_remaining() const {
  const Cycle avg = txlb_.estimate(static_id_);
  if (avg == 0) return 0;
  const Cycle ran = kernel_.now() - attempt_begin_;
  return avg > ran ? avg - ran : 0;
}

bool TxnContext::is_txn_line(BlockAddr addr) const {
  return in_txn_ && !aborted_ && blocks_.contains(addr);
}

void TxnContext::on_overflow_eviction(BlockAddr addr) {
  if (in_txn_ && !aborted_) {
    PUNO_TEV(kernel_, trace::Cat::kTxn,
             (trace::TraceEvent{.cycle = kernel_.now(),
                                .addr = addr,
                                .ts = ts_,
                                .a = trace::kAbortOverflow,
                                .b = kInvalidTimestamp,
                                .node = node_,
                                .peer = kInvalidNode,
                                .kind = trace::EventKind::kTxnAbort}));
  }
  abort(AbortCause::kOverflow);
}

Cycle TxnContext::retry_backoff(Cycle notification, std::uint32_t retries) {
  return mgr_->retry_backoff(notification, retries);
}

void TxnContext::on_getx_outcome(BlockAddr addr, bool success,
                                 std::uint32_t nacks,
                                 std::uint32_t aborted_sharers) {
  PUNO_TEV(kernel_, trace::Cat::kConflict,
           (trace::TraceEvent{.cycle = kernel_.now(),
                              .addr = addr,
                              .ts = ts_,
                              .a = nacks,
                              .b = aborted_sharers,
                              .node = node_,
                              .kind = trace::EventKind::kGetxOutcome,
                              .flags = success ? std::uint8_t{1}
                                               : std::uint8_t{0}}));
  if (!success && nacks > 0 && aborted_sharers > 0) {
    // The request was nacked, so the sharers it aborted were aborted for
    // nothing: false aborting (Section II.C).
    false_abort_events_.add();
    ++tile_false_aborts_;
    falsely_aborted_txns_.add(aborted_sharers);
    false_abort_multiplicity_.sample(aborted_sharers);
  }
}

}  // namespace puno::htm

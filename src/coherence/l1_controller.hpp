// Private L1 cache controller.
//
// Services the core's loads and stores (32 KB, 4-way, 1-cycle hits), issues
// GETS/GETX to the home directory on misses and upgrades, collects the
// Data/Ack/Nack response set, and answers forwarded requests from other
// nodes after consulting the transaction layer for conflicts (Section II.B):
//
//   * conflicting, local transaction older  -> NACK the requester;
//   * conflicting, local transaction younger -> abort locally, then grant;
//   * U-bit (PUNO unicast) forwards are never granted: a correct prediction
//     nacks with a notification, a misprediction nacks conservatively with
//     the MP-bit set (Section III.C).
//
// A nacked request is re-issued after a backoff chosen by the transaction
// layer (fixed 20 cycles in the baseline, notification-guided under PUNO) —
// this retry loop is the "polling" the paper's Figure 4 shows exacerbating
// false aborting.
//
// The core issues at most one memory operation at a time, so the controller
// holds at most one miss (MSHR) and reports every completion through one
// hook, which the core sets once; writebacks of dirty victims ride a
// separate writeback buffer that also answers forwards that cross a PutX in
// flight. Every reply to a forward is built by coherence::reply_to() and
// goes to the forward's requester.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>

#include "coherence/cache_array.hpp"
#include "coherence/hooks.hpp"
#include "coherence/message.hpp"
#include "sim/config.hpp"
#include "sim/kernel.hpp"

namespace puno::coherence {

class L1Controller {
 public:
  using SendFn =
      std::function<void(NodeId dst, std::shared_ptr<const Message>)>;
  /// Completion hook: true = the operation performed; false = it was
  /// cancelled because the surrounding transaction aborted.
  using CompletionFn = std::function<void(bool)>;

  enum class LineState : std::uint8_t { kS, kE, kM };

  L1Controller(sim::Kernel& kernel, const SystemConfig& cfg, NodeId node,
               TxnHooks& hooks, SendFn send);

  L1Controller(const L1Controller&) = delete;
  L1Controller& operator=(const L1Controller&) = delete;

  /// Sets the hook every operation completes through (the core's, set
  /// once at construction).
  void set_completion(CompletionFn fn) { complete_ = std::move(fn); }

  /// Core-facing memory operations, completed through the completion hook.
  /// `exclusive_hint` asks for a GETX even on a load (the RMW predictor's
  /// "request exclusive permission upon the read"). At most one operation
  /// may be outstanding.
  void load(Addr addr, bool transactional, bool exclusive_hint);
  void store(Addr addr, bool transactional);

  /// Protocol messages addressed to this node's L1.
  void handle_message(const Message& msg);

  /// The local transaction aborted: cancel the outstanding transactional
  /// miss at its next completion/retry boundary.
  void on_local_abort();

  /// Test/debug introspection.
  [[nodiscard]] std::optional<LineState> line_state(BlockAddr addr) const;
  [[nodiscard]] bool has_outstanding_miss() const noexcept {
    return mshr_.has_value();
  }
  [[nodiscard]] NodeId node() const noexcept { return node_; }
  /// True while a PutX for `addr` is in flight (the writeback buffer still
  /// answers forwards for the line).
  [[nodiscard]] bool has_writeback(BlockAddr addr) const {
    return wb_buffer_.contains(addr);
  }
  /// Read-only visit of every valid L1 line, for the invariant checker:
  /// fn(BlockAddr, LineState).
  template <typename Fn>
  void for_each_line(Fn&& fn) const {
    cache_.for_each_valid(
        [&fn](const CacheLine<L1Meta>& line) { fn(line.addr, line.state.state); });
  }

  // --- per-tile telemetry counters/gauges (docs/TELEMETRY.md) ---
  // Plain members outside the stats registry so stats dumps never change
  // when a sampler is attached; differenced per window by the spatial
  // telemetry channels.
  /// NACK messages this tile's L1 sent to remote requesters.
  [[nodiscard]] std::uint64_t tile_nacks_sent() const noexcept {
    return tile_nacks_sent_;
  }
  /// NACK messages this tile's L1 received for its own acquisitions.
  [[nodiscard]] std::uint64_t tile_nacks_received() const noexcept {
    return tile_nacks_received_;
  }
  /// Gauge: valid L1 lines currently pinned by the local transaction
  /// (read/write-set residents the replacement policy must not evict).
  [[nodiscard]] std::uint64_t txn_pinned_lines() const {
    std::uint64_t pinned = 0;
    cache_.for_each_valid([&](const CacheLine<L1Meta>& line) {
      if (hooks_.is_txn_line(line.addr)) ++pinned;
    });
    return pinned;
  }
  /// Fault injection for the invariant-checker tests ONLY: silently drops
  /// `addr` from the cache as a (hypothetical) pinning bug would, so tests
  /// can assert the checker catches an unpinned transactional line.
  void corrupt_invalidate_for_test(BlockAddr addr) {
    if (auto* line = cache_.find(addr)) cache_.invalidate(*line);
  }

 private:
  struct L1Meta {
    LineState state = LineState::kS;
  };
  static_assert(static_cast<int>(LineState::kS) == 0,
                "CacheArray zero-fills lines: the default state must be 0");
  static_assert(sizeof(CacheLine<L1Meta>) == 24);
  struct Mshr {
    BlockAddr addr = 0;
    bool is_store = false;
    bool exclusive = false;  ///< Request is a GETX (store or RMW-hint load).
    bool transactional = false;
    std::uint32_t retries = 0;
    bool cancel = false;
    // Response collection state for the current issue:
    bool data_received = false;
    bool data_exclusive = false;
    bool expected_known = false;
    std::uint32_t expected = 0;
    std::uint32_t responses = 0;
    std::uint32_t nacks = 0;
    std::uint32_t aborted_acks = 0;
    /// Exact set of nodes that nacked this issue (reported to the home on
    /// the UNBLOCK as the surviving sharers).
    SharerSet nackers;
    Cycle best_notification = 0;
    bool mp_seen = false;
    NodeId mp_node = kInvalidNode;
    bool in_backoff = false;
    /// Guards scheduled retry events against stale wakeups when a hint (or
    /// anything else) re-issues the request early.
    std::uint64_t backoff_epoch = 0;
    Cycle first_issue = 0;
  };
  struct DeferredOp {
    bool is_store = false;
    bool transactional = false;
    bool exclusive_hint = false;
    Addr addr = 0;
  };

  void start_miss(Addr addr, bool is_store, bool exclusive,
                  bool transactional);
  void issue_request();
  void check_completion();
  void complete_success();
  void complete_failure();
  void finalize(bool success);

  void handle_response(const Message& msg);
  void handle_retry_hint(const Message& msg);
  void handle_inv(const Message& msg);
  void handle_fwd_gets(const Message& msg);
  void handle_wb_reply(const Message& msg);

  /// Installs `addr`, evicting as needed (transactional lines are pinned;
  /// if a set is fully pinned the transaction suffers an overflow abort).
  CacheLine<L1Meta>& install(BlockAddr addr, LineState state);
  void evict(CacheLine<L1Meta>& line);

  [[nodiscard]] NodeId home(BlockAddr addr) const {
    return cfg_.home_of(addr);
  }
  /// Sends a reply built by reply_to() to the forward's requester.
  void send_reply(std::shared_ptr<const Message> reply);

  sim::Kernel& kernel_;
  const SystemConfig& cfg_;
  NodeId node_;
  TxnHooks& hooks_;
  SendFn send_;
  CompletionFn complete_;

  CacheArray<L1Meta> cache_;
  std::optional<Mshr> mshr_;
  /// Blocks whose PutX is in flight.
  std::unordered_set<BlockAddr> wb_buffer_;
  std::optional<DeferredOp> deferred_;  ///< Op waiting for a writeback ack.

  sim::Counter& loads_;
  sim::Counter& stores_;
  sim::Counter& hits_;
  sim::Counter& misses_;
  sim::Counter& tx_getx_issued_;
  sim::Counter& tx_getx_nacked_;
  sim::Counter& retries_stat_;
  sim::Counter& overflow_aborts_;
  sim::Counter& evictions_;
  sim::Scalar& contended_acquire_latency_;
  sim::Scalar& retries_per_contended_acquire_;
  sim::Counter& hint_wakeups_;

  std::uint64_t tile_nacks_sent_ = 0;      ///< Run-total NACKs sent.
  std::uint64_t tile_nacks_received_ = 0;  ///< Run-total NACKs received.
};

}  // namespace puno::coherence

// PUNO's directory-side assist: unicast-destination prediction.
//
// Implements coherence::DirectoryAssist on top of the P-Buffer, the per-entry
// UD (Unicast Destination) pointers (stored inside the directory entries and
// recomputed here off the critical path), and the adaptive rollover timeout:
// the timeout period tracks an exponentially weighted average of the
// transaction lengths that requesters piggyback on their requests, clamped
// to [min_timeout, max_timeout] (Section III.B notes the period is derived
// from the average transaction length so that workloads with long
// transactions age their priorities more slowly).
//
// Units: `avg_txn_len`, `timeout_period()` and `prediction_latency()` are
// in simulated cycles (the 2-cycle prediction latency models the P-Buffer
// lookup + compare, off the directory's critical path). `Timestamp`
// arguments are transaction priorities (smaller = older = wins), not
// cycles. `sharers` is a directory entry's sharer list (coherence::SharerSet).
//
// Ownership: one PunoDirectory per node, owned by arch::Cmp and attached
// to the node's Directory via set_assist() as a non-owning pointer — the
// assist must stay alive for as long as the directory services requests
// (the directory never dereferences it after the simulation stops). The
// UD pointer itself lives inside each directory entry; this class only
// recomputes it, and the P-Buffer it consults is owned here by value.
#pragma once

#include <cstdint>

#include "coherence/hooks.hpp"
#include "puno/pbuffer.hpp"
#include "sim/config.hpp"
#include "sim/kernel.hpp"

namespace puno::core {

class PunoDirectory final : public coherence::DirectoryAssist {
 public:
  PunoDirectory(sim::Kernel& kernel, const SystemConfig& cfg, NodeId node);

  PunoDirectory(const PunoDirectory&) = delete;
  PunoDirectory& operator=(const PunoDirectory&) = delete;

  // --- coherence::DirectoryAssist ---
  /// Every incoming transactional request refreshes the P-Buffer with the
  /// requester's priority and folds its piggybacked average transaction
  /// length (cycles) into the adaptive rollover period.
  void observe_request(NodeId src, Timestamp ts, Cycle avg_txn_len) override;
  /// Unicast decision for a transactional GETX: returns the single sharer
  /// to forward to (the UD hint, revalidated against the P-Buffer), or
  /// kInvalidNode to fall back to multicast (no usable prediction, or the
  /// predicted sharer would lose to the requester anyway).
  [[nodiscard]] NodeId predict_unicast(const coherence::SharerSet& sharers,
                                       NodeId requester, Timestamp req_ts,
                                       NodeId ud_hint) override;
  /// Recomputes a directory entry's UD pointer: the highest-priority
  /// (oldest-timestamp) sharer with a live (validity > 0) P-Buffer entry,
  /// else kInvalidNode. Runs off the critical path (on UNBLOCK).
  [[nodiscard]] NodeId recompute_ud(const coherence::SharerSet& sharers)
      override;
  /// MP-bit feedback: the unicast sent to `mp_node` was wasted; zero its
  /// P-Buffer validity so it cannot misdirect again until refreshed.
  void on_misprediction(NodeId mp_node) override;
  /// P-Buffer lookup + priority compare latency in cycles, charged to the
  /// directory's service time on the predicted path.
  [[nodiscard]] Cycle prediction_latency() const override { return 2; }

  // --- Introspection ---
  [[nodiscard]] const PBuffer& pbuffer() const noexcept { return pbuf_; }
  /// Current adaptive rollover period in cycles (clamped to
  /// [puno.min_timeout, puno.max_timeout]).
  [[nodiscard]] Cycle timeout_period() const noexcept { return period_; }

 private:
  void schedule_rollover();

  sim::Kernel& kernel_;
  const SystemConfig& cfg_;
  NodeId node_;
  PBuffer pbuf_;
  Cycle period_;
  bool rollover_armed_ = false;

  sim::Counter& predictions_;
  sim::Counter& multicast_fallbacks_;
  /// Created lazily on the first capacity eviction, so configurations that
  /// never overflow the P-Buffer (capacity >= num_nodes, e.g. the paper's
  /// 16-node CMP) keep a byte-identical stats registry.
  sim::Counter* pbuffer_evictions_ = nullptr;
};

}  // namespace puno::core

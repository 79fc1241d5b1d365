// The open-loop production-traffic driver.
//
// Closed-loop workloads (STAMP profiles, traces) hand the core a new
// transaction the moment the previous one commits, so offered load always
// equals service rate and contention collapse is invisible. Production
// services are open loop: requests arrive on their own schedule, queue in a
// bounded buffer, and are shed when the buffer is full. Under HTM that
// distinction is the whole story — a scheme that aborts 2x more does not
// just run 2x longer, it drops requests and stretches queue delay tails.
//
// OpenLoopWorkload implements the Workload interface on top of per-core
// arrival schedules (arrivals.hpp), skewed key sampling (sampler.hpp) and
// transactional kernels (kernels.hpp):
//
//  - attached to a sim::Kernel (the normal simulation path), next(node)
//    pumps that core's arrival process up to the current simulated cycle
//    into a bounded queue, drops past-capacity arrivals, and serves the
//    queue head. When the queue is empty with arrivals still to come, the
//    next future arrival is served with pre_think = (arrival - now) so the
//    core idles exactly until it lands. Pumping lazily at poll times is
//    *exact*: pops only ever happen at polls, so admitting arrivals in time
//    order against the running queue size (arrivals ahead of the poll's pop
//    at equal times) reproduces instant-by-instant bounded-queue semantics.
//
//  - unattached ("drain mode": workloads::analyze, punosim --record-trace),
//    next(node) yields every arrival in order with no queueing, no drops
//    and no waiting — a virtual clock advances along the arrival schedule so
//    phase-shifted key sampling still sees arrival time.
//
// Everything is seed-deterministic: each core owns two private Rng streams
// (arrival process / key+kernel draws), and descriptors are built in
// arrival order, so a given (seed, config) produces bit-identical traffic
// regardless of runner parallelism.
//
// Stats (created lazily at attach(), so non-traffic runs' stats output is
// byte-identical to before this engine existed):
//   traffic.offered      arrivals generated (admitted + dropped)
//   traffic.admitted     arrivals that fit in the bounded queue
//   traffic.dropped      arrivals shed at a full queue
//   traffic.begun        admitted arrivals handed to a core
//   traffic.queue_delay  histogram of admit -> serve delay (cycles)
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "traffic/arrivals.hpp"
#include "traffic/kernels.hpp"
#include "traffic/sampler.hpp"
#include "workloads/workload.hpp"

namespace puno::traffic {

class OpenLoopWorkload final : public workloads::Workload {
 public:
  /// Queue-delay histogram cap (cycles); longer delays land in the overflow
  /// bucket, so tail percentiles read "cap or more".
  static constexpr std::size_t kDelayHistMax = 4096;

  /// `scale` (> 0; registry::make checks it) multiplies
  /// cfg.arrivals_per_node (the ExperimentParams::scale convention the
  /// STAMP profiles use for transaction counts); the quota is rounded and
  /// floored at 1.
  OpenLoopWorkload(KernelKind kind, const TrafficConfig& cfg,
                   NodeId num_nodes, std::uint64_t seed,
                   std::uint32_t block_bytes, double scale = 1.0);

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::optional<workloads::TxnDesc> next(NodeId node) override;

  /// Switches from drain mode to open-loop mode: next() reads simulated
  /// time from `k` and binds the traffic.* stats in k.stats(). arch::Cmp's
  /// constructor calls it; a second call with the same kernel changes
  /// nothing.
  void attach(sim::Kernel& k) override;

  [[nodiscard]] bool attached() const noexcept { return kernel_ != nullptr; }
  [[nodiscard]] KernelKind kind() const noexcept { return gen_.kind(); }
  [[nodiscard]] const KernelGen& kernel_gen() const noexcept { return gen_; }
  /// Arrival quota per core after scaling.
  [[nodiscard]] std::uint64_t quota() const noexcept { return quota_; }

  // Aggregate outcomes (mirrors of the traffic.* stats; also live in drain
  // mode, where nothing is ever queued or dropped).
  [[nodiscard]] std::uint64_t offered() const noexcept { return offered_; }
  [[nodiscard]] std::uint64_t admitted() const noexcept { return admitted_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::uint64_t begun() const noexcept { return begun_; }

 private:
  struct Queued {
    std::uint64_t arrival = 0;  ///< Cycle the request reached the core.
    workloads::TxnDesc desc;
  };

  struct NodeState {
    NodeState(const TrafficConfig& cfg, std::uint64_t seed, NodeId n)
        : arrivals(cfg, seed, 0xA00 + n), gen_rng(seed, 0xB00 + n) {}

    ArrivalSchedule arrivals;
    sim::Rng gen_rng;          ///< Key sampling + kernel body draws.
    std::uint64_t generated = 0;
    std::uint64_t next_time = 0;  ///< Pending arrival (valid if next_ready).
    bool next_ready = false;
    std::deque<Queued> queue;
  };

  /// Draws ns.next_time if no arrival is pending. Returns false once the
  /// core's quota is exhausted.
  bool ensure_next(NodeState& ns);
  /// Builds the descriptor for an arrival at `when` (consumes gen_rng draws
  /// in arrival order — the determinism contract).
  [[nodiscard]] workloads::TxnDesc build(NodeState& ns, std::uint64_t when);
  /// Admits every arrival at or before `now` against the bounded queue.
  void pump(NodeState& ns, std::uint64_t now);
  void count_offered(bool admitted_one);

  std::string name_;
  TrafficConfig cfg_;
  KeySampler sampler_;
  KernelGen gen_;
  std::uint64_t quota_;
  std::vector<NodeState> nodes_;

  sim::Kernel* kernel_ = nullptr;  // not owned; null = drain mode
  sim::Counter* st_offered_ = nullptr;
  sim::Counter* st_admitted_ = nullptr;
  sim::Counter* st_dropped_ = nullptr;
  sim::Counter* st_begun_ = nullptr;
  sim::Histogram* st_delay_ = nullptr;

  std::uint64_t offered_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t begun_ = 0;
};

}  // namespace puno::traffic

// Simple in-order core model.
//
// Executes the workload's transaction descriptors: think, TX_BEGIN, a
// sequence of transactional loads/stores (each preceded by compute cycles),
// TX_COMMIT, think, repeat. On an abort (detected at the next operation
// boundary — the L1 cancels in-flight transactional misses) the core waits
// out the abort-recovery latency plus the scheme's restart backoff and
// re-executes the same dynamic instance, as the paper's log-based HTM does.
//
// This replaces the paper's SIMICS SPARC cores: the HTM/coherence machinery
// under study observes identical address streams and timing degrees of
// freedom (see DESIGN.md, substitutions).
#pragma once

#include <cstdint>
#include <optional>

#include "coherence/l1_controller.hpp"
#include "htm/txn_context.hpp"
#include "sim/config.hpp"
#include "sim/kernel.hpp"
#include "workloads/workload.hpp"

namespace puno::arch {

class Core {
 public:
  Core(sim::Kernel& kernel, const SystemConfig& cfg, NodeId node,
       htm::TxnContext& txn, coherence::L1Controller& l1,
       workloads::Workload& workload);

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  /// Kicks off execution (schedules the first transaction).
  void start();

  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] std::uint64_t committed() const noexcept { return committed_; }
  [[nodiscard]] NodeId node() const noexcept { return node_; }

 private:
  void fetch_next();      ///< Pull the next descriptor (or finish).
  void begin_attempt();   ///< TX_BEGIN and start issuing ops.
  void step();            ///< Issue the next op or commit.
  void issue_op();
  /// The L1's completion hook for the op at op_idx_.
  void finish_op(bool success);
  void commit_txn();
  void restart();         ///< Abort path: recovery + backoff, then retry.

  sim::Kernel& kernel_;
  const SystemConfig& cfg_;
  NodeId node_;
  htm::TxnContext& txn_;
  coherence::L1Controller& l1_;
  workloads::Workload& workload_;

  std::optional<workloads::TxnDesc> desc_;
  std::size_t op_idx_ = 0;
  bool done_ = false;
  std::uint64_t committed_ = 0;
};

}  // namespace puno::arch

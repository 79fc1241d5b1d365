#include "arch/core.hpp"

#include "trace/recorder.hpp"

namespace puno::arch {

Core::Core(sim::Kernel& kernel, const SystemConfig& cfg, NodeId node,
           htm::TxnContext& txn, coherence::L1Controller& l1,
           workloads::Workload& workload)
    : kernel_(kernel),
      cfg_(cfg),
      node_(node),
      txn_(txn),
      l1_(l1),
      workload_(workload) {
  l1_.set_completion([this](bool success) { finish_op(success); });
}

void Core::start() {
  kernel_.schedule(1, [this] { fetch_next(); });
}

void Core::fetch_next() {
  desc_ = workload_.next(node_);
  if (!desc_.has_value()) {
    done_ = true;
    return;
  }
  kernel_.schedule(desc_->pre_think, [this] { begin_attempt(); });
}

void Core::begin_attempt() {
  txn_.begin(desc_->static_id);
  op_idx_ = 0;
  step();
}

void Core::step() {
  if (txn_.aborted()) {
    restart();
    return;
  }
  if (op_idx_ >= desc_->ops.size()) {
    commit_txn();
    return;
  }
  const workloads::TxOp& op = desc_->ops[op_idx_];
  kernel_.schedule(op.pre_think, [this] { issue_op(); });
}

void Core::issue_op() {
  if (txn_.aborted()) {
    restart();
    return;
  }
  const workloads::TxOp& op = desc_->ops[op_idx_];
  if (op.is_store) {
    l1_.store(op.addr, /*transactional=*/true);
  } else {
    const bool excl = txn_.should_load_exclusive(op.pc);
    l1_.load(op.addr, /*transactional=*/true, excl);
  }
}

void Core::finish_op(bool success) {
  if (!success || txn_.aborted()) {
    restart();
    return;
  }
  const workloads::TxOp& op = desc_->ops[op_idx_];
  txn_.on_access(op.addr, op.is_store, op.pc);
  ++op_idx_;
  step();
}

void Core::commit_txn() {
  txn_.commit();
  ++committed_;
  kernel_.schedule(desc_->post_think, [this] { fetch_next(); });
}

void Core::restart() {
  // FASTM-style recovery from the hardware buffer, plus the scheme's
  // restart backoff (randomized linear for the Backoff comparison point).
  const Cycle delay =
      cfg_.htm.abort_recovery_latency + txn_.restart_backoff();
  PUNO_TEV(kernel_, trace::Cat::kTxn,
           (trace::TraceEvent{.cycle = kernel_.now(),
                              .a = delay,
                              .b = txn_.attempt_aborts(),
                              .node = node_,
                              .kind = trace::EventKind::kTxnStall}));
  kernel_.schedule(delay, [this] { begin_attempt(); });
}

}  // namespace puno::arch

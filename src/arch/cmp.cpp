#include "arch/cmp.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace puno::arch {

namespace {

using coherence::Message;
using coherence::MsgType;

/// Payload size on the wire: data-carrying messages move a cache line;
/// everything else (including all PUNO extensions, Section III.E) fits in
/// the head flit.
[[nodiscard]] std::uint32_t wire_bytes(const Message& m,
                                       const SystemConfig& cfg) {
  return coherence::carries_data(m.type) && m.has_payload
             ? cfg.cache.block_bytes
             : 0;
}

/// Messages steered to the directory (home-side) vs. the L1 (requester/
/// sharer side) of a tile.
[[nodiscard]] bool for_directory(MsgType t) {
  switch (t) {
    case MsgType::kGetS:
    case MsgType::kGetX:
    case MsgType::kPutX:
    case MsgType::kUnblock:
    case MsgType::kWbData:
      return true;
    default:
      return false;
  }
}

}  // namespace

Cmp::Cmp(const SystemConfig& cfg, workloads::Workload& workload) : cfg_(cfg) {
  if (auto err = validate(cfg_); err.has_value()) {
    throw std::invalid_argument("SystemConfig: " + *err);
  }
  mesh_ = std::make_unique<noc::Mesh>(kernel_, cfg_.noc);
  kernel_.add_tickable(*mesh_, "noc.mesh");

  const Cycle c2c = mesh_->average_c2c_latency();
  const auto n = static_cast<NodeId>(cfg_.num_nodes);

  for (NodeId i = 0; i < n; ++i) {
    txns_.push_back(
        std::make_unique<htm::TxnContext>(kernel_, cfg_, i, c2c));
  }
  for (NodeId i = 0; i < n; ++i) {
    auto send = [this, i](NodeId dst, std::shared_ptr<const Message> msg) {
      const auto vnet = coherence::vnet_of(msg->type);
      const std::uint32_t bytes = wire_bytes(*msg, cfg_);
      mesh_->send(i, dst, vnet, bytes, std::move(msg));
    };
    l1s_.push_back(std::make_unique<coherence::L1Controller>(
        kernel_, cfg_, i, *txns_[i], send));
    txns_[i]->attach_l1(l1s_[i].get());
    if (cfg_.puno.enable_commit_hint) {
      txns_[i]->set_hint_sender([send, i](NodeId dst, BlockAddr addr) {
        send(dst, coherence::make_message(MsgType::kRetryHint, addr, i, dst));
      });
    }
    dirs_.push_back(
        std::make_unique<coherence::Directory>(kernel_, cfg_, i, send));
    if (txns_[i]->conflict_manager().wants_directory_assist()) {
      assists_.push_back(
          std::make_unique<core::PunoDirectory>(kernel_, cfg_, i));
      dirs_[i]->set_assist(assists_.back().get());
    }
    mesh_->set_handler(i, [this, i](noc::Packet p) {
      // Every payload on a CMP's mesh is a Message sent above.
      const auto* msg = static_cast<const Message*>(p.payload.get());
      assert(msg != nullptr);
      if (for_directory(msg->type)) {
        dirs_[i]->handle_message(*msg);
      } else {
        l1s_[i]->handle_message(*msg);
      }
    });
  }
  for (NodeId i = 0; i < n; ++i) {
    cores_.push_back(std::make_unique<Core>(kernel_, cfg_, i, *txns_[i],
                                            *l1s_[i], workload));
  }
  workload.attach(kernel_);
}

bool Cmp::all_done() const {
  for (const auto& c : cores_) {
    if (!c->done()) return false;
  }
  return true;
}

std::uint64_t Cmp::total_committed() const {
  std::uint64_t total = 0;
  for (const auto& c : cores_) total += c->committed();
  return total;
}

bool Cmp::run(Cycle max_cycles) { return run(max_cycles, 0, nullptr); }

bool Cmp::run(Cycle max_cycles, Cycle check_interval,
              const std::function<bool(Cycle)>& stop) {
  if (!started_) {
    for (auto& c : cores_) c->start();
    started_ = true;
  }
  const auto done = [this] { return all_done() && mesh_->idle(); };
  if (check_interval == 0 || !stop) {
    return kernel_.run_until(done, max_cycles);
  }
  Cycle remaining = max_cycles;
  while (remaining > 0) {
    const Cycle slice = std::min(check_interval, remaining);
    if (kernel_.run_until(done, slice)) return true;
    remaining -= slice;
    if (stop(kernel_.now())) return false;
  }
  return done();
}

}  // namespace puno::arch

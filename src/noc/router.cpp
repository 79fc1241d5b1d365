#include "noc/router.hpp"

#include <cassert>

namespace puno::noc {

namespace {
/// Large credit count standing in for the NI's unbounded reassembly buffer.
constexpr std::uint32_t kEjectionCredits = 1u << 30;
}  // namespace

Router::Router(const NocConfig& cfg, NodeId id, sim::Counter& traversals)
    : cfg_(cfg),
      id_(id),
      traversals_(traversals),
      inputs_(kNumPorts * cfg.total_vcs()),
      outputs_(kNumPorts) {
  for (auto& in : inputs_) in.buffer.set_capacity(cfg.vc_depth);
  for (auto& port : outputs_) {
    port.vcs.resize(cfg.total_vcs(), OutputVc{.credits = cfg.vc_depth});
  }
  for (auto& vc : out(Port::kLocal).vcs) vc.credits = kEjectionCredits;
  const std::uint32_t num_cand = kNumPorts * cfg.total_vcs();
  assert(num_cand <= 64 && "validate() caps noc.vcs_per_vnet to fit a mask");
  cand_port_.resize(num_cand);
  cand_vc_.resize(num_cand);
  for (std::uint32_t idx = 0; idx < num_cand; ++idx) {
    cand_port_[idx] = static_cast<Port>(idx / cfg.total_vcs());
    cand_vc_[idx] = idx % cfg.total_vcs();
  }
}

void Router::receive_flit(Port p, std::uint32_t vc, Flit flit, Cycle now) {
  InputVc& in = in_vc(p, vc);
  assert(!in.buffer.full() && "credit protocol violated");
  // The flit occupies the 4-stage pipeline before it may traverse the switch.
  flit.ready_at = now + cfg_.pipeline_stages - 1;
  if (in.buffer.empty() && !in.active) {
    va_mask_ |= std::uint64_t{1}
                << (static_cast<std::uint32_t>(p) * cfg_.total_vcs() + vc);
  }
  in.buffer.push_back(std::move(flit));
  ++buffered_flits_;
  if (buffered_flits_ == 1 && active_set_ != nullptr) active_set_->add(id_);
}

bool Router::corrupt_drop_flit_for_test() {
  for (std::uint32_t idx = 0; idx < inputs_.size(); ++idx) {
    InputVc& in = inputs_[idx];
    if (in.buffer.empty()) continue;
    in.buffer.pop_back();  // drop the youngest flit; head/VA state stays sane
    if (in.buffer.empty() && !in.active) {
      va_mask_ &= ~(std::uint64_t{1} << idx);
    }
    --buffered_flits_;
    return true;
  }
  return false;
}

void Router::return_credit(Port p, std::uint32_t vc) {
  OutputVc& ovc = out(p).vcs[vc];
  assert(ovc.credits < cfg_.vc_depth || p == Port::kLocal);
  ++ovc.credits;
}

bool Router::try_allocate_vc(Port p, std::uint32_t vc, const Packet& pkt) {
  InputVc& in = in_vc(p, vc);
  in.out_port = route_xy(id_, pkt.dst, cfg_.mesh_width);
  OutputPort& oport = out(in.out_port);
  // VCs are partitioned per virtual network; a packet may only claim a VC
  // inside its vnet's slice, which is what breaks protocol deadlock.
  const std::uint32_t base =
      static_cast<std::uint32_t>(pkt.vnet) * cfg_.vcs_per_vnet;
  for (std::uint32_t i = 0; i < cfg_.vcs_per_vnet; ++i) {
    const std::uint32_t cand = base + i;
    if (!oport.vcs[cand].held) {
      oport.vcs[cand].held = true;
      in.out_vc = cand;
      in.active = true;
      const std::uint64_t bit =
          std::uint64_t{1}
          << (static_cast<std::uint32_t>(p) * cfg_.total_vcs() + vc);
      va_mask_ &= ~bit;
      sa_mask_[static_cast<std::size_t>(in.out_port)] |= bit;
      return true;
    }
  }
  return false;
}

bool Router::try_switch(std::uint32_t op, std::uint32_t idx, Cycle now,
                        bool* input_port_used, std::vector<Traversal>& hops) {
  const Port ip = cand_port_[idx];
  const std::uint32_t ivc = cand_vc_[idx];
  if (input_port_used[static_cast<std::size_t>(ip)]) return false;
  InputVc& in = in_vc(ip, ivc);
  if (!in.active || in.buffer.empty()) return false;
  if (static_cast<std::uint32_t>(in.out_port) != op) return false;
  const Flit& front = in.buffer.front();
  if (front.ready_at > now) return false;
  OutputPort& oport = out(static_cast<Port>(op));
  OutputVc& ovc = oport.vcs[in.out_vc];
  if (ovc.credits == 0) return false;

  // Winner: traverse the switch.
  Flit flit = std::move(in.buffer.front());
  in.buffer.pop_front();
  --buffered_flits_;
  --ovc.credits;
  input_port_used[static_cast<std::size_t>(ip)] = true;
  oport.rr_next = (idx + 1) % (kNumPorts * cfg_.total_vcs());
  traversals_.add();
  ++local_traversals_;

  if (flit.is_tail) {
    ovc.held = false;
    in.active = false;
    const std::uint64_t bit = std::uint64_t{1} << idx;
    sa_mask_[op] &= ~bit;
    if (!in.buffer.empty()) va_mask_ |= bit;
  }

  hops.push_back(Traversal{id_, static_cast<Port>(op), in.out_vc, ip, ivc,
                           std::move(flit)});
  return true;
}

void Router::tick(Cycle now, std::vector<Traversal>& hops) {
  if (buffered_flits_ == 0) return;

  // VC allocation: any idle input VC whose front flit is a ready head, in
  // ascending (port, vc) order.
  std::uint64_t waiting = va_mask_;
  while (waiting != 0) {
    const auto idx = static_cast<std::uint32_t>(__builtin_ctzll(waiting));
    waiting &= waiting - 1;
    InputVc& in = inputs_[idx];
    const Flit& head = in.buffer.front();
    if (!head.is_head || head.ready_at > now) continue;
    try_allocate_vc(cand_port_[idx], cand_vc_[idx], *head.packet);
  }

  // Switch allocation + traversal: one flit per output port and per input
  // port per cycle, round-robin among competing input VCs: the allocated
  // candidates for each output port are visited in scan-index order
  // starting at rr_next, wrapping once.
  bool input_port_used[kNumPorts] = {};
  for (std::uint32_t op = 0; op < kNumPorts; ++op) {
    const std::uint64_t m = sa_mask_[op];
    if (m == 0) continue;
    const std::uint32_t rr = out(static_cast<Port>(op)).rr_next;
    // Bits at idx >= rr first, then idx < rr: round-robin wrap order.
    std::uint64_t part = m & (~std::uint64_t{0} << rr);
    for (int half = 0; half < 2; ++half) {
      bool won = false;
      while (part != 0) {
        const auto idx = static_cast<std::uint32_t>(__builtin_ctzll(part));
        part &= part - 1;
        if (try_switch(op, idx, now, input_port_used, hops)) {
          won = true;
          break;
        }
      }
      if (won) break;
      part = m & ~(~std::uint64_t{0} << rr);
    }
  }
}

}  // namespace puno::noc

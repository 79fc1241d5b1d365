#include "noc/router.hpp"

#include <cassert>

namespace puno::noc {

namespace {
/// Large credit count standing in for the NI's unbounded reassembly buffer.
constexpr std::uint32_t kEjectionCredits = 1u << 30;
}  // namespace

Router::Router(const NocConfig& cfg, NodeId id, std::span<const Coord> coords,
               sim::Counter& traversals)
    : inputs_(kNumPorts * cfg.total_vcs()),
      slots_(inputs_.size() * cfg.vc_depth),
      outputs_(kNumPorts * cfg.total_vcs(), OutputVc{.credits = cfg.vc_depth}),
      traversals_(traversals),
      coords_(coords.data()),
      here_(coords[id]),
      id_(id),
      depth_(static_cast<std::uint8_t>(cfg.vc_depth)),
      total_vcs_(static_cast<std::uint8_t>(cfg.total_vcs())),
      vcs_per_vnet_(static_cast<std::uint8_t>(cfg.vcs_per_vnet)),
      num_scan_(static_cast<std::uint8_t>(inputs_.size())) {
  assert(inputs_.size() <= kMaxScan &&
         "validate() caps noc.vcs_per_vnet to fit a mask");
  assert(cfg.vc_depth >= 1 && cfg.vc_depth <= FlitRing::kMaxDepth &&
         "validate() caps noc.vc_depth to fit the ring's byte indices");
  for (std::uint32_t vc = 0; vc < total_vcs_; ++vc) {
    output(static_cast<std::uint32_t>(Port::kLocal), vc).credits =
        kEjectionCredits;
  }
  for (std::uint32_t idx = 0; idx < num_scan_; ++idx) {
    port_of_[idx] = static_cast<Port>(idx / total_vcs_);
  }
}

void Router::receive_flit(Port p, std::uint32_t vc, Flit flit) {
  const std::uint32_t idx = static_cast<std::uint32_t>(p) * total_vcs_ + vc;
  InputVc& in = inputs_[idx];
  const std::span<Flit> slots = slots_of(idx);
  assert(!in.ring.full(slots) && "credit protocol violated");
  if (in.ring.empty() && !in.active) va_mask_ |= std::uint64_t{1} << idx;
  in.ring.push_back(slots, flit);
  ++buffered_flits_;
  if (buffered_flits_ == 1 && active_set_ != nullptr) active_set_->add(id_);
}

bool Router::corrupt_drop_flit_for_test() {
  for (std::uint32_t idx = 0; idx < num_scan_; ++idx) {
    InputVc& in = inputs_[idx];
    if (in.ring.empty()) continue;
    in.ring.pop_back();  // drop the youngest flit
    if (in.ring.empty() && !in.active) {
      va_mask_ &= ~(std::uint64_t{1} << idx);
    }
    --buffered_flits_;
    return true;
  }
  return false;
}

void Router::return_credit(Port p, std::uint32_t vc) {
  OutputVc& ovc = output(static_cast<std::uint32_t>(p), vc);
  assert(ovc.credits < depth_ || p == Port::kLocal);
  ++ovc.credits;
}

bool Router::try_allocate_vc(std::uint32_t idx, const Flit& head) {
  InputVc& in = inputs_[idx];
  in.out_port = route(head.dst);
  const auto op = static_cast<std::uint32_t>(in.out_port);
  // VCs are partitioned per virtual network; a packet may only claim a VC
  // inside its vnet's slice, which is what breaks protocol deadlock.
  const std::uint32_t base =
      static_cast<std::uint32_t>(head.vnet) * vcs_per_vnet_;
  for (std::uint32_t cand = base; cand < base + vcs_per_vnet_; ++cand) {
    OutputVc& ovc = output(op, cand);
    if (!ovc.held) {
      ovc.held = true;
      in.out_vc = static_cast<std::uint8_t>(cand);
      in.active = true;
      const std::uint64_t bit = std::uint64_t{1} << idx;
      va_mask_ &= ~bit;
      sa_mask_[op] |= bit;
      return true;
    }
  }
  return false;
}

bool Router::try_switch(std::uint32_t op, std::uint32_t idx,
                        bool* input_port_used, std::vector<Traversal>& out) {
  const Port ip = port_of_[idx];
  if (input_port_used[static_cast<std::size_t>(ip)]) return false;
  InputVc& in = inputs_[idx];
  if (!in.active || in.ring.empty()) return false;
  if (static_cast<std::uint32_t>(in.out_port) != op) return false;
  const std::span<Flit> slots = slots_of(idx);
  OutputVc& ovc = output(op, in.out_vc);
  if (ovc.credits == 0) return false;

  // Winner: traverse the switch.
  const Flit front = in.ring.front(slots);
  const auto in_vc = static_cast<std::uint8_t>(
      idx - static_cast<std::uint32_t>(ip) * total_vcs_);
  out.push_back(
      Traversal{id_, static_cast<Port>(op), in.out_vc, ip, in_vc, front});
  in.ring.pop_front(slots);
  --buffered_flits_;
  --ovc.credits;
  input_port_used[static_cast<std::size_t>(ip)] = true;
  rr_next_[op] = static_cast<std::uint8_t>(idx + 1 == num_scan_ ? 0 : idx + 1);
  traversals_.add();
  ++local_traversals_;

  if (front.is_tail) {
    ovc.held = false;
    in.active = false;
    const std::uint64_t bit = std::uint64_t{1} << idx;
    sa_mask_[op] &= ~bit;
    if (!in.ring.empty()) va_mask_ |= bit;
  }
  return true;
}

void Router::tick(std::vector<Traversal>& hops,
                  std::vector<Traversal>& ejects) {
  if (buffered_flits_ == 0) return;

  // VC allocation: any idle input VC whose front flit is a head, in
  // ascending (port, vc) order.
  std::uint64_t waiting = va_mask_;
  while (waiting != 0) {
    const auto idx = static_cast<std::uint32_t>(__builtin_ctzll(waiting));
    waiting &= waiting - 1;
    const Flit& head = inputs_[idx].ring.front(slots_of(idx));
    if (!head.is_head) continue;
    try_allocate_vc(idx, head);
  }

  // Switch allocation + traversal: one flit per output port and per input
  // port per cycle, round-robin among competing input VCs: the allocated
  // candidates for each output port are visited in scan-index order
  // starting at rr_next_, wrapping once.
  bool input_port_used[kNumPorts] = {};
  for (std::uint32_t op = 0; op < kNumPorts; ++op) {
    const std::uint64_t m = sa_mask_[op];
    if (m == 0) continue;
    std::vector<Traversal>& out =
        op == static_cast<std::uint32_t>(Port::kLocal) ? ejects : hops;
    const std::uint32_t rr = rr_next_[op];
    // Bits at idx >= rr first, then idx < rr: round-robin wrap order.
    std::uint64_t part = m & (~std::uint64_t{0} << rr);
    for (int half = 0; half < 2; ++half) {
      bool won = false;
      while (part != 0) {
        const auto idx = static_cast<std::uint32_t>(__builtin_ctzll(part));
        part &= part - 1;
        if (try_switch(op, idx, input_port_used, out)) {
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

#include "noc/network_interface.hpp"

#include <cassert>

#include "trace/recorder.hpp"

namespace puno::noc {

NetworkInterface::NetworkInterface(sim::Kernel& kernel, const NocConfig& cfg,
                                   NodeId id, PacketPool& pool,
                                   sim::StatsRegistry& stats)
    : kernel_(kernel),
      cfg_(cfg),
      id_(id),
      pool_(pool),
      lanes_(cfg.num_vnets),
      local_vc_(cfg.total_vcs()),
      eject_have_(cfg.total_vcs(), 0),
      packets_sent_(stats.counter("noc.packets_sent")),
      packets_received_(stats.counter("noc.packets_received")),
      flits_sent_(stats.counter("noc.flits_sent")),
      flits_ejected_(stats.counter("noc.flits_ejected")),
      packet_latency_(stats.scalar("noc.packet_latency")) {
  for (auto& vc : local_vc_) vc.credits = cfg.vc_depth;
}

bool NetworkInterface::idle() const {
  for (const VnetLane& lane : lanes_) {
    if (!lane.queue.empty() || lane.inflight != PacketPool::kNone) {
      return false;
    }
  }
  return true;
}

void NetworkInterface::send(NodeId dst, VNet vnet, std::uint32_t data_bytes,
                            std::shared_ptr<const void> payload) {
  assert(dst != id_ && "NoC messages to self must be short-circuited above");
  const PacketPool::Id slot = pool_.allocate();
  Packet& pkt = pool_[slot];
  pkt.id = (static_cast<std::uint64_t>(id_) << 48) | next_packet_seq_++;
  pkt.src = id_;
  pkt.dst = dst;
  pkt.vnet = vnet;
  pkt.num_flits = 1 + (data_bytes + cfg_.flit_bytes - 1) / cfg_.flit_bytes;
  pkt.injected_at = kernel_.now();
  pkt.payload = std::move(payload);
  lanes_[static_cast<std::size_t>(vnet)].queue.push_back(slot);
  if (active_set_ != nullptr) active_set_->add(id_);
}

int NetworkInterface::pick_vc(VNet vnet) const {
  const std::uint32_t base =
      static_cast<std::uint32_t>(vnet) * cfg_.vcs_per_vnet;
  for (std::uint32_t i = 0; i < cfg_.vcs_per_vnet; ++i) {
    if (local_vc_[base + i].credits > 0) return static_cast<int>(base + i);
  }
  return -1;
}

void NetworkInterface::tick(Cycle now, std::vector<Injection>& injected) {
  // One flit per cycle, round-robin across vnet lanes for fairness.
  for (std::uint32_t k = 0; k < cfg_.num_vnets; ++k) {
    const std::uint32_t v = (rr_vnet_ + k) % cfg_.num_vnets;
    VnetLane& lane = lanes_[v];
    if (lane.inflight == PacketPool::kNone) {
      if (lane.queue.empty()) continue;
      const int vc = pick_vc(static_cast<VNet>(v));
      if (vc < 0) continue;  // no credited VC this cycle
      lane.inflight = lane.queue.front();
      lane.queue.pop_front();
      lane.vc = static_cast<std::uint32_t>(vc);
      lane.sent = 0;
    }
    VcCredit& credit = local_vc_[lane.vc];
    if (credit.credits == 0) continue;

    const Packet& pkt = pool_[lane.inflight];
    const Flit flit{.packet = lane.inflight,
                    .dst = pkt.dst,
                    .vnet = pkt.vnet,
                    .is_head = lane.sent == 0,
                    .is_tail = lane.sent + 1 == pkt.num_flits};
    --credit.credits;
    PUNO_TEV(kernel_, trace::Cat::kNoc,
             (trace::TraceEvent{
                 .cycle = now,
                 .a = pkt.id,
                 .b = static_cast<std::uint64_t>(pkt.vnet),
                 .node = id_,
                 .peer = pkt.dst,
                 .kind = trace::EventKind::kFlitInject,
                 .flags = static_cast<std::uint8_t>(
                     (flit.is_head ? 1u : 0u) | (flit.is_tail ? 2u : 0u))}));
    injected.push_back(
        Injection{id_, static_cast<std::uint8_t>(lane.vc), flit});
    flits_sent_.add();
    ++lane.sent;
    if (flit.is_tail) {
      packets_sent_.add();
      lane.inflight = PacketPool::kNone;
    }
    rr_vnet_ = (v + 1) % cfg_.num_vnets;
    return;  // injected our one flit for this cycle
  }
}

void NetworkInterface::eject_flit(std::uint32_t vc, Flit flit) {
  flits_ejected_.add();
  PUNO_TEV(kernel_, trace::Cat::kNoc,
           (trace::TraceEvent{
               .cycle = kernel_.now(),
               .a = pool_[flit.packet].id,
               .b = static_cast<std::uint64_t>(flit.vnet),
               .node = id_,
               .peer = pool_[flit.packet].src,
               .kind = trace::EventKind::kFlitEject,
               .flags = static_cast<std::uint8_t>(
                   (flit.is_head ? 1u : 0u) | (flit.is_tail ? 2u : 0u))}));
  // Wormhole routing delivers a packet's flits contiguously on its VC, so a
  // plain per-VC counter replaces the old per-packet-id reassembly map. The
  // tail flit is by construction the num_flits'th flit of its packet.
  const std::uint32_t have = ++eject_have_[vc];
  if (!flit.is_tail) return;
  Packet& pkt = pool_[flit.packet];
  assert(have == pkt.num_flits && "per-VC packet stream not contiguous");
  (void)have;
  eject_have_[vc] = 0;
  packets_received_.add();
  packet_latency_.sample(static_cast<double>(kernel_.now() - pkt.injected_at));
  // The handler may send, which may grow the arena: hand it the packet by
  // value and free the slot only once it returns.
  if (deliver_) deliver_(std::move(pkt));
  pool_.release(flit.packet);
}

void NetworkInterface::return_credit(std::uint32_t vc) {
  assert(vc < local_vc_.size());
  ++local_vc_[vc].credits;
}

}  // namespace puno::noc

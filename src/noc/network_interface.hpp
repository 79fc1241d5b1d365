// Network interface (NI): packetizes payloads into flits on the injection
// side and reassembles flits into packets on the ejection side. A payload is
// an untyped shared pointer the NI never reads; the delivery handler knows
// what it holds.
//
// The NI keeps an unbounded per-vnet injection queue (endpoint queues must
// be able to sink/source without backpressure for the protocol-deadlock
// argument to hold) and injects at most one flit per cycle toward its
// router's local input port, subject to VC availability and credits. One
// packet per virtual network may be in flight from the NI at a time, so
// response traffic is never blocked behind request traffic at the injection
// point. The NI does not touch the router: tick() appends each injected
// flit to a list the mesh passes in, and the mesh writes it into the router
// once the router's pipeline delay has passed (mesh.hpp).
//
// Hot-path notes: packets live in the mesh-wide PacketPool arena (one
// free-list pop per send instead of a heap allocation per packet); a lane
// queues slot ids, and the ejection side reads the packet only at the tail
// flit, which delivers it and frees the slot. Reassembly is a per-VC flit
// counter instead of a hash map — wormhole routing holds an output VC
// until the tail flit passes, so the flits of a packet arrive contiguously
// on their VC and the tail is always the completing flit. send() reports
// to an optional ActiveSet so the mesh can skip NIs with nothing to inject.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "noc/active_set.hpp"
#include "noc/flit.hpp"
#include "noc/packet_pool.hpp"
#include "sim/config.hpp"
#include "sim/kernel.hpp"

namespace puno::noc {

/// One flit an NI injected toward local input VC `vc` of router `router`.
struct Injection {
  NodeId router;
  std::uint8_t vc;
  Flit flit;
};
static_assert(sizeof(Injection) == 12, "an injection is 4 bytes + a flit");

class NetworkInterface {
 public:
  /// Callback invoked when a whole packet has been ejected at this node.
  using DeliveryHandler = std::function<void(Packet)>;

  NetworkInterface(sim::Kernel& kernel, const NocConfig& cfg, NodeId id,
                   PacketPool& pool, sim::StatsRegistry& stats);

  NetworkInterface(const NetworkInterface&) = delete;
  NetworkInterface& operator=(const NetworkInterface&) = delete;

  void set_delivery_handler(DeliveryHandler h) { deliver_ = std::move(h); }

  /// Registers the mesh's NI active set; send() adds this NI so the mesh
  /// tick visits it while it has work. Null (the default) for standalone
  /// NIs in unit tests, which are ticked unconditionally.
  void set_active_set(ActiveSet* set) noexcept { active_set_ = set; }

  /// Queues a packet for injection. The flit count is 1 head flit plus
  /// ceil(data_bytes / flit_bytes) body flits (data_bytes == 0 for control
  /// messages, which fit in the head flit — Section III.E notes the PUNO
  /// message extensions never add flits).
  void send(NodeId dst, VNet vnet, std::uint32_t data_bytes,
            std::shared_ptr<const void> payload);

  /// Injection side: appends at most one flit per cycle to `injected`,
  /// bound for the router's local input port.
  void tick(Cycle now, std::vector<Injection>& injected);

  /// Ejection side: the mesh's link stage delivers here every flit that
  /// leaves the router's local output port. The tail flit delivers the
  /// packet and frees its arena slot.
  void eject_flit(std::uint32_t vc, Flit flit);

  /// Credit for the router's local input port, returned by the link stage.
  void return_credit(std::uint32_t vc);

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] bool idle() const;

 private:
  struct VcCredit {
    std::uint32_t credits = 0;
  };
  /// Per-vnet injection state: queued packets plus the one being
  /// serialized, by arena slot.
  struct VnetLane {
    std::deque<PacketPool::Id> queue;
    PacketPool::Id inflight = PacketPool::kNone;
    std::uint32_t vc = 0;
    std::uint32_t sent = 0;
  };

  /// Picks a credited VC in the vnet's slice, or -1 if none available.
  [[nodiscard]] int pick_vc(VNet vnet) const;

  sim::Kernel& kernel_;
  const NocConfig cfg_;
  NodeId id_;
  PacketPool& pool_;
  DeliveryHandler deliver_;
  ActiveSet* active_set_ = nullptr;

  std::vector<VnetLane> lanes_;     // one per vnet
  std::uint32_t rr_vnet_ = 0;       // round-robin over vnets for injection
  std::vector<VcCredit> local_vc_;  // credits toward router local input port

  /// Ejection reassembly: flits received for the packet currently arriving
  /// on each VC (wormhole keeps per-VC packet streams contiguous).
  std::vector<std::uint32_t> eject_have_;  // [vc]

  std::uint64_t next_packet_seq_ = 0;
  sim::Counter& packets_sent_;
  sim::Counter& packets_received_;
  sim::Counter& flits_sent_;
  sim::Counter& flits_ejected_;
  sim::Scalar& packet_latency_;
};

}  // namespace puno::noc

// The 2D-mesh on-chip network: routers + NIs joined by the mesh's link
// stage.
//
// Upper protocol layers use Mesh as a message transport: send() an untyped
// payload to a node, receive it through that node's handler, which knows
// what the payload holds (arch::Cmp's hold coherence messages). Messages
// whose source and destination coincide (e.g. an L1 talking to the L2 bank
// on its own tile) bypass the network with one cycle of latency and generate
// no router traversals, as on a real tiled CMP.
//
// Scheduling: instead of ticking all N routers and N NIs every cycle, the
// mesh keeps two id-ordered active sets. A router registers when a flit is
// written into it while it holds none (Router::receive_flit), an NI when a
// message is queued (NetworkInterface::send); each is pruned once it
// drains. Because iteration is in ascending id order — NIs first, then
// routers, exactly the order the full sweep used — and a skipped
// component's tick was a no-op by construction, the active-set schedule is
// cycle-for-cycle identical to the full sweep. NocConfig::always_tick
// restores the full sweep (the reference path the equivalence tests compare
// against); the active sets are kept up to date in both modes so the
// invariant checker can assert coverage.
//
// Link stage and router pipeline: the mesh, not the routers, owns link
// timing, topology and the router pipeline delay d = pipeline_stages - 1.
// A flit enters a router's input buffer only in the first tick in which it
// may switch, so a router never holds a flit it cannot act on:
//   - A cycle's switch traversals go into slot S % (link_latency +
//     max(d, 1)) of a ring of stage slots, in two lists in traversal
//     order: router-bound hops and ejections. A non-empty slot costs one
//     kernel event, at S + link_latency, which lands it and ejects each
//     ejection into its NI; landing stays an event because the protocol
//     sees where a delivery falls in the cycle's event order.
//   - The slot's credits return upstream at the start of tick S + 2,
//     before the NI pass: only router and NI ticks read credits, so that
//     is when an event at S + 1 made them visible. validate()'s
//     link_latency >= 1 gives the ring two slots or more; with two, tick
//     S + 2 reuses the slot, so the credits go first.
//   - A landed slot's router-bound flits stay where they are: they are in
//     the downstream router's pipeline. At the start of tick
//     S + link_latency + max(d, 1), before the router pass, they are
//     written into their routers through the opposite port and the slot is
//     cleared for that tick's traversals. A link arrival lands after its
//     cycle's router pass, so it waits at least one tick even when d = 0.
//   - An NI injection at tick C goes into slot (C + d) % (d + 1) of a ring
//     of injection lists; after the NI pass of tick E, slot E % (d + 1) is
//     written into the local input ports, so the flit first switches at
//     C + d, in its own tick when d = 0.
// A flit held in a router's pipeline counts as buffered in that router
// (buffered_flits, buffered_router_flits); inflight_link_flits counts only
// flits on their links. Both are computed by scanning the two rings, off
// the hot path.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "noc/active_set.hpp"
#include "noc/network_interface.hpp"
#include "noc/packet_pool.hpp"
#include "noc/router.hpp"
#include "sim/config.hpp"
#include "sim/kernel.hpp"

namespace puno::noc {

class Mesh final : public sim::Tickable {
 public:
  using MessageHandler = std::function<void(Packet)>;

  Mesh(sim::Kernel& kernel, const NocConfig& cfg);

  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;

  [[nodiscard]] std::uint32_t num_nodes() const noexcept {
    return cfg_.mesh_width * cfg_.rows();
  }

  void set_handler(NodeId node, MessageHandler h);

  /// Sends `payload` from `src` to `dst`. Control messages use
  /// data_bytes = 0 (single flit); cache-line transfers use the block size.
  void send(NodeId src, NodeId dst, VNet vnet, std::uint32_t data_bytes,
            std::shared_ptr<const void> payload);

  void tick(Cycle now) override;

  /// True when no flit is buffered or queued anywhere in the network.
  [[nodiscard]] bool idle() const;

  /// Total flit router traversals so far — the Figure 11 traffic metric.
  [[nodiscard]] std::uint64_t router_traversals() const noexcept {
    return traversals_->value();
  }

  /// Average cache-to-cache (node-to-node) latency implied by the topology:
  /// mean hop distance over all src != dst pairs times per-hop cost plus the
  /// endpoint pipeline. PUNO's notification-guided backoff subtracts twice
  /// this value from the nacker's estimated remaining runtime (Section III.D)
  /// Purely topology-derived, so it is computed once at construction.
  [[nodiscard]] std::uint32_t average_c2c_latency() const noexcept {
    return avg_c2c_latency_;
  }

  [[nodiscard]] Router& router(NodeId n) { return *routers_[n]; }
  [[nodiscard]] const Router& router(NodeId n) const { return *routers_[n]; }
  [[nodiscard]] const NetworkInterface& ni(NodeId n) const {
    return *nis_[n];
  }

  // --- Read-only inspection for the invariant checker ---

  /// Flits in the link stage: switched, not yet in the next router or NI.
  [[nodiscard]] std::uint64_t inflight_link_flits() const noexcept;
  /// Flits buffered in routers, summed over the whole mesh: in input
  /// buffers or held in a router's pipeline.
  [[nodiscard]] std::uint64_t buffered_router_flits() const;
  /// Flits buffered in router `n`: its input buffers plus the flits held in
  /// its pipeline. The telemetry sampler's per-tile queue gauge.
  [[nodiscard]] std::uint64_t buffered_flits(NodeId n) const;
  /// Protocol messages handed to send() since construction (including
  /// same-tile bypasses, which never become flits).
  [[nodiscard]] std::uint64_t messages_injected() const noexcept {
    return messages_injected_;
  }
  /// Protocol messages delivered to a node handler (or dropped for lack of
  /// one) since construction.
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return messages_delivered_;
  }
  /// True if the router is on the active-set schedule. Any router holding
  /// flits in its input buffers must be active, or it would silently stop
  /// draining — the invariant checker asserts exactly that.
  [[nodiscard]] bool router_active(NodeId n) const noexcept {
    return router_active_.contains(n);
  }
  /// True if the NI is on the active-set schedule. Any NI with queued or
  /// in-flight injection work must be active.
  [[nodiscard]] bool ni_active(NodeId n) const noexcept {
    return ni_active_.contains(n);
  }

  /// The packet arena: live() counts packets accepted by send() whose tail
  /// flit has not yet been delivered. A drained mesh holds none.
  [[nodiscard]] const PacketPool& packet_pool() const noexcept {
    return pool_;
  }

  /// Fault injection for the invariant-checker tests ONLY: drops one flit
  /// from some router buffer, or else one held in a router's pipeline.
  /// Returns false if no router held a flit.
  bool corrupt_drop_flit_for_test();

 private:
  /// One link-stage slot: the traversals of one cycle, router-bound
  /// (`hops`) and out of a local port (`ejects`). `landed` is set once they
  /// have crossed their links; the router-bound ones are then held in the
  /// downstream router's pipeline until the slot is next reused.
  struct StageSlot {
    std::vector<Traversal> hops;
    std::vector<Traversal> ejects;
    bool landed = false;
  };

  /// Returns one credit upstream for each of the slot's traversals.
  void return_credits(const StageSlot& slot);
  /// The landing event of slot `s`: ejects its flits into their NIs.
  void land(std::size_t s);
  /// Writes the flits whose pipeline delay ends in tick `now` into their
  /// routers: the landed stage slot `now` reuses, then this tick's
  /// injection slot.
  void enter_routers(Cycle now);
  /// Calls fn(router id) for each flit held in a router's pipeline.
  template <typename Fn>
  void for_each_held(Fn&& fn) const;
  /// The id of the router beyond inter-router port `p` of router `id`.
  [[nodiscard]] NodeId neighbour_id(NodeId id, Port p) const {
    return static_cast<NodeId>(id + step_[static_cast<std::size_t>(p)]);
  }

  sim::Kernel& kernel_;
  const NocConfig cfg_;
  sim::Counter* traversals_;
  /// Packet arena of every NI: the source NI takes a packet's slot, the
  /// destination NI frees it once the tail flit has delivered the packet.
  PacketPool pool_;
  /// Every node's coordinate, which the routers route from.
  std::vector<Coord> coords_;
  /// The link stage: traversal lists indexed by
  /// cycle % (link_latency + max(d, 1)).
  std::vector<StageSlot> stage_;
  /// NI injections indexed by the cycle they enter their router,
  /// % (d + 1).
  std::vector<std::vector<Injection>> injecting_;
  std::uint32_t pipeline_delay_;  ///< d = noc.pipeline_stages - 1.
  /// Row-major id step to the router beyond each port; XY routing never
  /// leaves the mesh.
  std::array<std::int32_t, kNumPorts> step_;
  std::uint64_t inflight_local_ = 0;  ///< Self-sends awaiting delivery.
  std::uint64_t messages_injected_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::uint32_t avg_c2c_latency_ = 0;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<NetworkInterface>> nis_;
  std::vector<MessageHandler> handlers_;
  ActiveSet ni_active_;
  ActiveSet router_active_;
};

}  // namespace puno::noc

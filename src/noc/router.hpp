// Virtual-channel wormhole router with credit-based flow control.
//
// Microarchitecture (Table II: "4-stage router"): the BW/RC, VA, SA, ST
// pipeline occupancy is served before a flit reaches the router. The mesh
// holds each flit in its link stage or injection ring (mesh.hpp) and writes
// it into its input buffer in the first cycle it may traverse the switch
// (pipeline_stages - 1 cycles after it entered the router), so the router
// keeps no per-flit timing and every buffered flit is eligible. Route
// computation (XY) happens when the head flit reaches the front of its VC;
// output-VC allocation grabs a free downstream VC in the packet's virtual
// network; switch allocation arbitrates round-robin per output port with at
// most one flit per input port and per output port per cycle; switch
// traversal forwards the flit and frees a buffer slot upstream.
//
// The router owns no links. tick() appends every switch traversal to one
// of two lists the mesh passes in, by whether the flit leaves for a
// neighbour router or for the tile's NI; the mesh's link stage (mesh.hpp)
// carries the flit on and the credit back upstream.
// Every successful switch traversal increments the mesh-wide
// "flit router traversals" counter — the exact network-traffic metric of
// the paper's Figure 11.
//
// Hot-path notes: a router's state is three flat arrays sized once from
// NocConfig, plus a few inline fields, so a tick or a flit delivery
// touches a few cache lines of one router (~1.6 KiB in four heap blocks at
// the default config):
//   - inputs_: one 5-byte InputVc per input VC: its ring's head and size as
//     bytes (FlitRing) plus the VA state (active, out_port, out_vc);
//   - slots_: every input VC's flits, vc_depth 8-byte slots per VC, in
//     input-VC order; FlitRing indexes the VC's span of it;
//   - outputs_: one OutputVc (credits, held) per output (port, vc).
// An input VC's scan index, port * total_vcs + vc, indexes inputs_, its
// span of slots_ and its bit in the scan masks. The round-robin pointers
// and the index -> port table live inline, and the router keeps only the
// config fields it reads, plus its own mesh coordinate and the mesh's
// coordinate table for routing. Ring and round-robin wraps are compares,
// and a flit is a plain 8-byte value that carries its packet's destination
// and vnet (flit.hpp), so VC allocation loads no packet and no division
// runs per flit. The router reports its 0->1 buffered transition to an
// optional ActiveSet so the mesh can skip routers with nothing to switch;
// a router whose flits are all still in their pipeline holds none and is
// off the schedule. The VA and SA scans iterate candidate bitmasks
// instead of every (port, vc) slot: va_mask_ holds input VCs with buffered
// flits awaiting VC allocation, sa_mask_[op] the allocated input VCs
// routed to output port op, visited in ascending (VA) or
// round-robin-from-rr_next_ (SA) order. The (port, vc) space must fit one
// 64-bit word, so validate() caps noc.vcs_per_vnet at 4 with the fixed 3
// vnets; it caps noc.vc_depth at FlitRing::kMaxDepth.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "noc/active_set.hpp"
#include "noc/flit.hpp"
#include "noc/flit_ring.hpp"
#include "noc/routing.hpp"
#include "sim/config.hpp"
#include "sim/stats.hpp"

namespace puno::noc {

/// One switch traversal: `flit` left `router` through (out_port, out_vc)
/// and freed a slot in input buffer (in_port, in_vc).
struct Traversal {
  NodeId router;
  Port out_port;
  std::uint8_t out_vc;
  Port in_port;
  std::uint8_t in_vc;
  Flit flit;
};
static_assert(sizeof(Traversal) == 16, "a traversal is 8 bytes + a flit");

class Router {
 public:
  /// Every output starts with vc_depth credits per VC, except the local
  /// (ejection) port, whose NI reassembly buffer is unbounded. `coords` is
  /// the mesh's coordinate table (coord_table), which must outlive the
  /// router.
  Router(const NocConfig& cfg, NodeId id, std::span<const Coord> coords,
         sim::Counter& traversals);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  [[nodiscard]] NodeId id() const noexcept { return id_; }

  /// Registers the mesh's router active set; receive_flit adds this router
  /// on its 0→1 buffered transition. Null (the default) for standalone
  /// routers in unit tests, which are ticked unconditionally.
  void set_active_set(ActiveSet* set) noexcept { active_set_ = set; }

  /// Writes a flit into input buffer (p, vc); it may switch in the next
  /// tick. The mesh calls this once the flit's pipeline delay has passed.
  /// The sender must have reserved a credit; overflow is a protocol bug and
  /// asserts.
  void receive_flit(Port p, std::uint32_t vc, Flit flit);

  /// The output port XY routing takes from this router toward `dst`, from
  /// the coordinate table rather than recomputing either coordinate.
  [[nodiscard]] Port route(NodeId dst) const noexcept {
    return route_xy(here_, coords_[dst]);
  }

  /// Restores one credit for output (p, vc). Called by the link stage.
  void return_credit(Port p, std::uint32_t vc);

  /// One cycle of switch allocation + traversal; appends each traversal to
  /// `ejects` if it left through the local port, else to `hops`, in the
  /// order the switch granted them.
  void tick(std::vector<Traversal>& hops, std::vector<Traversal>& ejects);

  /// True if no flit is buffered anywhere in this router.
  [[nodiscard]] bool idle() const noexcept { return buffered_flits_ == 0; }

  /// Number of flits in this router's input buffers. Flits the mesh still
  /// holds in this router's pipeline are not counted here; the mesh's
  /// buffered_flits(n) adds them.
  [[nodiscard]] std::uint64_t buffered_flits() const noexcept {
    return buffered_flits_;
  }

  /// Lifetime switch traversals through *this* router (the mesh-wide counter
  /// aggregates all routers). The telemetry sampler differences this between
  /// windows for the per-router utilization panel.
  [[nodiscard]] std::uint64_t local_traversals() const noexcept {
    return local_traversals_;
  }

  /// Fault injection for the invariant-checker tests ONLY: silently discards
  /// one buffered flit (as a flow-control bug would), without touching the
  /// injected/ejected counters. Returns false if nothing was buffered.
  bool corrupt_drop_flit_for_test();

 private:
  /// Scan-index space: one bit per input (port, vc) in a 64-bit mask.
  static constexpr std::uint32_t kMaxScan = 64;

  struct InputVc {
    FlitRing ring;              ///< Indexes this VC's span of slots_.
    bool active = false;        ///< Holds an in-flight packet (post-VA).
    Port out_port = Port::kLocal;
    std::uint8_t out_vc = 0;
  };
  struct OutputVc {
    std::uint32_t credits = 0;
    bool held = false;          ///< Allocated to some upstream packet.
  };

  /// The flit slots of input VC `idx` (scan index port * total_vcs + vc).
  [[nodiscard]] std::span<Flit> slots_of(std::uint32_t idx) noexcept {
    return {slots_.data() + std::size_t{idx} * depth_, depth_};
  }
  [[nodiscard]] OutputVc& output(std::uint32_t port, std::uint32_t vc) {
    return outputs_[port * total_vcs_ + vc];
  }

  /// Tries VC allocation for `head`, the flit at the front of input VC
  /// `idx`.
  bool try_allocate_vc(std::uint32_t idx, const Flit& head);

  /// Switch-allocation attempt for scan candidate `idx` competing for
  /// output port `op`; on success performs the traversal into `out` and
  /// returns true.
  bool try_switch(std::uint32_t op, std::uint32_t idx, bool* input_port_used,
                  std::vector<Traversal>& out);

  std::vector<InputVc> inputs_;    // [port * total_vcs + vc]
  std::vector<Flit> slots_;        // [(port * total_vcs + vc) * depth + i]
  std::vector<OutputVc> outputs_;  // [port * total_vcs + vc]
  /// Scan-index bit per input VC that holds flits but no output VC yet.
  std::uint64_t va_mask_ = 0;
  /// Scan-index bit per allocated (post-VA) input VC, keyed by the output
  /// port the packet is routed to. A set bit does not imply a flit is
  /// buffered — that is re-checked in scan order.
  std::uint64_t sa_mask_[kNumPorts] = {};
  std::uint64_t buffered_flits_ = 0;
  std::uint64_t local_traversals_ = 0;
  ActiveSet* active_set_ = nullptr;
  sim::Counter& traversals_;
  const Coord* coords_;           ///< The mesh's coordinate table.
  Coord here_;                    ///< This router's mesh coordinate.
  NodeId id_;
  std::uint8_t depth_;            ///< noc.vc_depth.
  std::uint8_t total_vcs_;
  std::uint8_t vcs_per_vnet_;
  std::uint8_t num_scan_;         ///< kNumPorts * total_vcs_.
  /// Round-robin pointer per output port over scan indices.
  std::uint8_t rr_next_[kNumPorts] = {};
  /// Scan index -> input port, precomputed to keep the divisions out of
  /// the scan loops.
  std::array<Port, kMaxScan> port_of_{};
};

}  // namespace puno::noc

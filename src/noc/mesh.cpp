#include "noc/mesh.hpp"

#include <algorithm>
#include <cassert>

namespace puno::noc {

namespace {
[[nodiscard]] constexpr Port opposite(Port p) noexcept {
  switch (p) {
    case Port::kNorth: return Port::kSouth;
    case Port::kSouth: return Port::kNorth;
    case Port::kEast: return Port::kWest;
    case Port::kWest: return Port::kEast;
    case Port::kLocal: return Port::kLocal;
  }
  return Port::kLocal;
}
}  // namespace

Mesh::Mesh(sim::Kernel& kernel, const NocConfig& cfg)
    : kernel_(kernel),
      cfg_(cfg),
      traversals_(&kernel.stats().counter("noc.router_traversals")),
      coords_(coord_table(cfg.mesh_width, cfg.mesh_width * cfg.rows())),
      stage_(cfg.link_latency + std::max(cfg.pipeline_stages - 1, 1u)),
      injecting_(cfg.pipeline_stages),
      pipeline_delay_(cfg.pipeline_stages - 1),
      handlers_(num_nodes()),
      ni_active_(num_nodes()),
      router_active_(num_nodes()) {
  assert(cfg_.link_latency >= 1 && "validate() rejects noc.link_latency 0");
  assert(cfg_.pipeline_stages >= 1 &&
         "validate() rejects noc.pipeline_stages 0");
  const auto width = static_cast<std::int32_t>(cfg_.mesh_width);
  step_ = {0, -width, width, 1, -1};  // local, north, south, east, west
  const std::uint32_t n = num_nodes();
  routers_.reserve(n);
  nis_.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    routers_.push_back(
        std::make_unique<Router>(cfg_, i, coords_, *traversals_));
    routers_.back()->set_active_set(&router_active_);
  }
  for (NodeId i = 0; i < n; ++i) {
    nis_.push_back(std::make_unique<NetworkInterface>(kernel_, cfg_, i, pool_,
                                                      kernel_.stats()));
    nis_.back()->set_active_set(&ni_active_);
    nis_.back()->set_delivery_handler([this, i](Packet p) {
      ++messages_delivered_;
      if (handlers_[i]) handlers_[i](std::move(p));
    });
  }

  // Mean hop distance over the n(n - 1) ordered src != dst pairs.
  const double avg_hops =
      static_cast<double>(total_hop_distance(cfg_.mesh_width, cfg_.rows())) /
      static_cast<double>(std::uint64_t{n} * (n - 1));
  const double per_hop = cfg_.pipeline_stages + cfg_.link_latency;
  avg_c2c_latency_ = static_cast<std::uint32_t>(avg_hops * per_hop);
}

void Mesh::set_handler(NodeId node, MessageHandler h) {
  assert(node < handlers_.size());
  handlers_[node] = std::move(h);
}

void Mesh::send(NodeId src, NodeId dst, VNet vnet, std::uint32_t data_bytes,
                std::shared_ptr<const void> payload) {
  assert(src < num_nodes() && dst < num_nodes());
  ++messages_injected_;
  if (src == dst) {
    // Same-tile communication: no network traversal, one cycle of latency.
    ++inflight_local_;
    kernel_.schedule(1, [this, src, dst, vnet, payload = std::move(payload)] {
      --inflight_local_;
      ++messages_delivered_;
      if (handlers_[dst]) {
        Packet p;
        p.src = src;
        p.dst = dst;
        p.vnet = vnet;
        p.injected_at = kernel_.now() - 1;
        p.payload = payload;
        handlers_[dst](std::move(p));
      }
    });
    return;
  }
  nis_[src]->send(dst, vnet, data_bytes, std::move(payload));
}

void Mesh::tick(Cycle now) {
  // Tick now - 2's credits (mesh.hpp: the ring has at least two slots).
  return_credits(stage_[(now + stage_.size() - 2) % stage_.size()]);
  std::vector<Injection>& injected =
      injecting_[(now + pipeline_delay_) % injecting_.size()];
  const std::size_t s = now % stage_.size();
  std::vector<Traversal>& hops = stage_[s].hops;
  std::vector<Traversal>& ejects = stage_[s].ejects;
  if (cfg_.always_tick) {
    // Reference schedule: full id-ordered sweep, every cycle. The active
    // sets are still pruned so their contents match the active-set mode
    // bit for bit (the invariant checker asserts coverage in both modes).
    for (auto& ni : nis_) ni->tick(now, injected);
    enter_routers(now);
    for (auto& r : routers_) r->tick(hops, ejects);
    ni_active_.for_each_prune(
        [this](NodeId id) { return !nis_[id]->idle(); });
    router_active_.for_each_prune(
        [this](NodeId id) { return !routers_[id]->idle(); });
  } else {
    // Active-set schedule: same id order as the full sweep, minus
    // components whose tick would provably be a no-op. Every flit that may
    // switch this cycle enters its router before the router pass, which
    // activates the router for it.
    ni_active_.for_each_prune([this, now, &injected](NodeId id) {
      nis_[id]->tick(now, injected);
      return !nis_[id]->idle();
    });
    enter_routers(now);
    router_active_.for_each_prune([this, &hops, &ejects](NodeId id) {
      routers_[id]->tick(hops, ejects);
      return !routers_[id]->idle();
    });
  }
  if (hops.empty() && ejects.empty()) return;
  kernel_.schedule(cfg_.link_latency, [this, s] { land(s); });
}

void Mesh::enter_routers(Cycle now) {
  // The slot this tick reuses was switched link_latency + max(d, 1) cycles
  // ago; its router-bound flits have served their pipeline.
  StageSlot& slot = stage_[now % stage_.size()];
  assert((slot.landed || (slot.hops.empty() && slot.ejects.empty())) &&
         "link stage slot reused before its flits landed");
  for (const Traversal& t : slot.hops) {
    routers_[neighbour_id(t.router, t.out_port)]->receive_flit(
        opposite(t.out_port), t.out_vc, t.flit);
  }
  slot.hops.clear();
  slot.ejects.clear();
  slot.landed = false;
  std::vector<Injection>& injected = injecting_[now % injecting_.size()];
  for (const Injection& i : injected) {
    routers_[i.router]->receive_flit(Port::kLocal, i.vc, i.flit);
  }
  injected.clear();
}

void Mesh::return_credits(const StageSlot& slot) {
  const auto credit = [this](const Traversal& t) {
    if (t.in_port == Port::kLocal) {
      nis_[t.router]->return_credit(t.in_vc);
    } else {
      routers_[neighbour_id(t.router, t.in_port)]->return_credit(
          opposite(t.in_port), t.in_vc);
    }
  };
  for (const Traversal& t : slot.hops) credit(t);
  for (const Traversal& t : slot.ejects) credit(t);
}

void Mesh::land(std::size_t s) {
  StageSlot& slot = stage_[s];
  for (const Traversal& t : slot.ejects) {
    nis_[t.router]->eject_flit(t.out_vc, t.flit);
  }
  slot.landed = true;
}

template <typename Fn>
void Mesh::for_each_held(Fn&& fn) const {
  for (const StageSlot& slot : stage_) {
    if (!slot.landed) continue;
    for (const Traversal& t : slot.hops) {
      fn(neighbour_id(t.router, t.out_port));
    }
  }
  for (const auto& injected : injecting_) {
    for (const Injection& i : injected) fn(i.router);
  }
}

std::uint64_t Mesh::inflight_link_flits() const noexcept {
  std::uint64_t total = 0;
  for (const StageSlot& slot : stage_) {
    if (!slot.landed) total += slot.hops.size() + slot.ejects.size();
  }
  return total;
}

bool Mesh::idle() const {
  if (inflight_link_flits() != 0 || inflight_local_ != 0 ||
      buffered_router_flits() != 0) {
    return false;
  }
  for (const auto& ni : nis_) {
    if (!ni->idle()) return false;
  }
  return true;
}

std::uint64_t Mesh::buffered_router_flits() const {
  std::uint64_t total = 0;
  for (const auto& r : routers_) total += r->buffered_flits();
  for_each_held([&total](NodeId) { ++total; });
  return total;
}

std::uint64_t Mesh::buffered_flits(NodeId n) const {
  std::uint64_t total = routers_[n]->buffered_flits();
  for_each_held([&total, n](NodeId id) { total += id == n; });
  return total;
}

bool Mesh::corrupt_drop_flit_for_test() {
  for (auto& r : routers_) {
    if (r->corrupt_drop_flit_for_test()) return true;
  }
  // Erasing a held flit leaves it simply gone, as a flow-control bug
  // would; its credit goes with it if the slot's credits have not returned.
  for (StageSlot& slot : stage_) {
    if (slot.landed && !slot.hops.empty()) {
      slot.hops.erase(slot.hops.begin());
      return true;
    }
  }
  for (auto& injected : injecting_) {
    if (!injected.empty()) {
      injected.pop_back();
      return true;
    }
  }
  return false;
}

}  // namespace puno::noc

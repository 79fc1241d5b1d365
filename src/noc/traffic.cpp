#include "noc/traffic.hpp"

namespace puno::noc {

const char* to_string(TrafficPattern p) noexcept {
  switch (p) {
    case TrafficPattern::kUniformRandom: return "uniform";
    case TrafficPattern::kHotspot: return "hotspot";
    case TrafficPattern::kTranspose: return "transpose";
    case TrafficPattern::kBitComplement: return "bit-complement";
    case TrafficPattern::kNearestNeighbour: return "neighbour";
  }
  return "?";
}

NodeId pattern_destination(TrafficPattern p, NodeId src, std::uint32_t width,
                           sim::Rng& rng) {
  const std::uint32_t n = width * width;
  switch (p) {
    case TrafficPattern::kUniformRandom: {
      auto dst = static_cast<NodeId>(rng.next_below(n));
      if (dst == src) dst = static_cast<NodeId>((dst + 1) % n);
      return dst;
    }
    case TrafficPattern::kHotspot: {
      if (src != 0 && rng.next_bool(0.25)) return 0;
      auto dst = static_cast<NodeId>(rng.next_below(n));
      if (dst == src) dst = static_cast<NodeId>((dst + 1) % n);
      return dst;
    }
    case TrafficPattern::kTranspose: {
      const Coord c = coord_of(src, width);
      NodeId dst = node_of(Coord{c.y, c.x}, width);
      if (dst == src) dst = static_cast<NodeId>((dst + 1) % n);
      return dst;
    }
    case TrafficPattern::kBitComplement: {
      NodeId dst = static_cast<NodeId>((n - 1) - src);
      if (dst == src) dst = static_cast<NodeId>((dst + 1) % n);
      return dst;
    }
    case TrafficPattern::kNearestNeighbour: {
      const Coord c = coord_of(src, width);
      return node_of(
          Coord{(c.x + 1) % static_cast<std::int32_t>(width), c.y}, width);
    }
  }
  return 0;
}

TrafficGenerator::TrafficGenerator(sim::Kernel& kernel, Mesh& mesh,
                                   const NocConfig& cfg,
                                   TrafficPattern pattern, double rate,
                                   std::uint32_t payload_bytes,
                                   std::uint64_t seed)
    : kernel_(kernel),
      mesh_(mesh),
      cfg_(cfg),
      pattern_(pattern),
      rate_(rate),
      payload_bytes_(payload_bytes),
      rng_(seed, 0xF00D) {
  const std::uint32_t n = cfg.mesh_width * cfg.mesh_width;
  for (NodeId d = 0; d < n; ++d) {
    mesh_.set_handler(d, [this](Packet p) {
      const double lat = static_cast<double>(kernel_.now() - p.injected_at);
      ++delivered_;
      latency_sum_ += lat;
      latency_max_ = std::max(latency_max_, lat);
    });
  }
}

void TrafficGenerator::tick(Cycle /*now*/) {
  const std::uint32_t n = cfg_.mesh_width * cfg_.mesh_width;
  for (NodeId src = 0; src < n; ++src) {
    if (!rng_.next_bool(rate_)) continue;
    const NodeId dst = pattern_destination(pattern_, src, cfg_.mesh_width,
                                           rng_);
    const auto vnet = static_cast<VNet>(rng_.next_below(cfg_.num_vnets));
    mesh_.send(src, dst, vnet, payload_bytes_, nullptr);
    ++injected_;
  }
}

TrafficGenerator::Results TrafficGenerator::results(Cycle elapsed) const {
  Results r;
  r.injected = injected_;
  r.delivered = delivered_;
  r.avg_latency = delivered_ == 0 ? 0.0 : latency_sum_ / delivered_;
  r.max_latency = latency_max_;
  const std::uint32_t n = cfg_.mesh_width * cfg_.mesh_width;
  r.throughput = elapsed == 0
                     ? 0.0
                     : static_cast<double>(delivered_) /
                           (static_cast<double>(elapsed) * n);
  return r;
}

}  // namespace puno::noc

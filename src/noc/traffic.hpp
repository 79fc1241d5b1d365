// Synthetic traffic generation for standalone NoC studies.
//
// The CMP experiments exercise the mesh with protocol traffic; this module
// drives it with the classic synthetic patterns instead (uniform random,
// hotspot, transpose, bit-complement, nearest-neighbour), measuring
// throughput and latency versus offered load — the standard way to
// characterize a router microarchitecture in isolation. A packet's latency
// is read from its own injection cycle, so the generator sends no payload.
#pragma once

#include <cstdint>
#include <string>

#include "noc/mesh.hpp"
#include "sim/kernel.hpp"
#include "sim/rng.hpp"

namespace puno::noc {

enum class TrafficPattern : std::uint8_t {
  kUniformRandom,    ///< Destination uniformly random (≠ source).
  kHotspot,          ///< 25% of traffic to node 0, rest uniform.
  kTranspose,        ///< (x,y) -> (y,x).
  kBitComplement,    ///< node -> ~node (mod N).
  kNearestNeighbour, ///< +1 in x (wrapping within the row).
};

[[nodiscard]] const char* to_string(TrafficPattern p) noexcept;

/// Picks the destination for `src` under the pattern.
[[nodiscard]] NodeId pattern_destination(TrafficPattern p, NodeId src,
                                         std::uint32_t width, sim::Rng& rng);

/// Open-loop injector: every node offers `rate` packets/node/cycle
/// (Bernoulli), measuring end-to-end packet latency at the sinks.
class TrafficGenerator final : public sim::Tickable {
 public:
  TrafficGenerator(sim::Kernel& kernel, Mesh& mesh, const NocConfig& cfg,
                   TrafficPattern pattern, double rate,
                   std::uint32_t payload_bytes = 0,
                   std::uint64_t seed = 1);

  void tick(Cycle now) override;

  struct Results {
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    double avg_latency = 0.0;
    double max_latency = 0.0;
    double throughput = 0.0;  ///< Delivered packets / node / cycle.
  };
  /// Snapshot after `measure_cycles` of simulated time.
  [[nodiscard]] Results results(Cycle elapsed) const;

 private:
  sim::Kernel& kernel_;
  Mesh& mesh_;
  NocConfig cfg_;
  TrafficPattern pattern_;
  double rate_;
  std::uint32_t payload_bytes_;
  sim::Rng rng_;
  std::uint64_t injected_ = 0;
  std::uint64_t delivered_ = 0;
  double latency_sum_ = 0.0;
  double latency_max_ = 0.0;
};

}  // namespace puno::noc

// 2D-mesh coordinates and dimension-order (XY) routing.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "sim/types.hpp"

namespace puno::noc {

/// Router ports. kLocal connects to the node's network interface.
enum class Port : std::uint8_t {
  kLocal = 0,
  kNorth = 1,
  kSouth = 2,
  kEast = 3,
  kWest = 4,
};
inline constexpr std::uint32_t kNumPorts = 5;

[[nodiscard]] constexpr const char* to_string(Port p) noexcept {
  switch (p) {
    case Port::kLocal: return "L";
    case Port::kNorth: return "N";
    case Port::kSouth: return "S";
    case Port::kEast: return "E";
    case Port::kWest: return "W";
  }
  return "?";
}

struct Coord {
  std::int32_t x = 0;
  std::int32_t y = 0;
  friend bool operator==(const Coord&, const Coord&) = default;
};

[[nodiscard]] constexpr Coord coord_of(NodeId n, std::uint32_t width) noexcept {
  return Coord{static_cast<std::int32_t>(n % width),
               static_cast<std::int32_t>(n / width)};
}

[[nodiscard]] constexpr NodeId node_of(Coord c, std::uint32_t width) noexcept {
  return static_cast<NodeId>(c.y * static_cast<std::int32_t>(width) + c.x);
}

/// coord_of for every node of a mesh `width` wide, indexed by node id. The
/// mesh builds it once and its routers route from it, so routing a head
/// flit divides nothing.
[[nodiscard]] inline std::vector<Coord> coord_table(std::uint32_t width,
                                                    std::uint32_t nodes) {
  std::vector<Coord> table(nodes);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    table[n] = coord_of(static_cast<NodeId>(n), width);
  }
  return table;
}

/// Dimension-order routing: fully resolve X before moving in Y. Deadlock-free
/// on a mesh because the turn set excludes all cycles.
[[nodiscard]] constexpr Port route_xy(Coord here, Coord dst) noexcept {
  if (here.x != dst.x) return dst.x > here.x ? Port::kEast : Port::kWest;
  if (here.y != dst.y) return dst.y > here.y ? Port::kSouth : Port::kNorth;
  return Port::kLocal;
}
[[nodiscard]] constexpr Port route_xy(NodeId here, NodeId dst,
                                      std::uint32_t width) noexcept {
  return route_xy(coord_of(here, width), coord_of(dst, width));
}

/// Manhattan hop count between two nodes.
[[nodiscard]] constexpr std::uint32_t hop_distance(NodeId a, NodeId b,
                                                   std::uint32_t width) noexcept {
  const Coord ca = coord_of(a, width);
  const Coord cb = coord_of(b, width);
  return static_cast<std::uint32_t>(std::abs(ca.x - cb.x) +
                                    std::abs(ca.y - cb.y));
}

/// hop_distance summed over all ordered node pairs of a width x height
/// mesh, in closed form. Along one dimension of n positions, |a - b| summed
/// over all ordered pairs is (n^3 - n) / 3 (an exact division: n^3 - n is
/// a product of three consecutive integers), and each X pair recurs for
/// every ordered pair of rows, as each Y pair does for every pair of columns.
[[nodiscard]] constexpr std::uint64_t total_hop_distance(
    std::uint32_t width, std::uint32_t height) noexcept {
  const std::uint64_t w = width;
  const std::uint64_t h = height;
  return h * h * ((w * w * w - w) / 3) + w * w * ((h * h * h - h) / 3);
}

}  // namespace puno::noc

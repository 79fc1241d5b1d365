#include "runner/grid.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <stdexcept>

#include "traffic/registry.hpp"
#include "workloads/stamp.hpp"

namespace puno::runner {

namespace {

template <typename T>
[[nodiscard]] bool parse_unsigned(std::string_view v, T& out) {
  // from_chars takes no sign or whitespace for an unsigned type and
  // reports overflow rather than clamping.
  T n{};
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, n);
  if (ec != std::errc{} || ptr != end) return false;
  out = n;
  return true;
}

}  // namespace

bool parse_u32(std::string_view v, std::uint32_t& out) {
  return parse_unsigned(v, out);
}

bool parse_u64(std::string_view v, std::uint64_t& out) {
  return parse_unsigned(v, out);
}

bool parse_f64(std::string_view v, double& out) {
  const std::string s(v);
  char* end = nullptr;
  const double d = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || !std::isfinite(d)) return false;
  out = d;
  return true;
}

namespace {

// One parse overload per field type for_each_key walks.
[[nodiscard]] bool parse(std::string_view v, std::uint8_t& out) {
  return parse_unsigned(v, out);
}
[[nodiscard]] bool parse(std::string_view v, std::uint32_t& out) {
  return parse_unsigned(v, out);
}
[[nodiscard]] bool parse(std::string_view v, std::uint64_t& out) {
  return parse_unsigned(v, out);
}
[[nodiscard]] bool parse(std::string_view v, double& out) {
  return parse_f64(v, out);
}
[[nodiscard]] bool parse(std::string_view v, bool& out) {
  if (v == "1" || v == "true" || v == "on") {
    out = true;
  } else if (v == "0" || v == "false" || v == "off") {
    out = false;
  } else {
    return false;
  }
  return true;
}
template <typename E>
[[nodiscard]] bool parse_enum(std::optional<E> e, E& out) {
  if (e) out = *e;
  return e.has_value();
}
[[nodiscard]] bool parse(std::string_view v, SharerRep& out) {
  return parse_enum(sharer_rep_from_string(v), out);
}
[[nodiscard]] bool parse(std::string_view v, ArrivalKind& out) {
  return parse_enum(arrival_kind_from_string(v), out);
}
[[nodiscard]] bool parse(std::string_view v, PlacementMode& out) {
  return parse_enum(placement_mode_from_string(v), out);
}

/// Keeps num_nodes == mesh_width * rows() after `key` was set: a mesh
/// dimension recomputes num_nodes; num_nodes re-derives the dimensions
/// (perfect squares stay square, other counts get the most-square w x h,
/// w >= h). False for a zero width or node count.
[[nodiscard]] bool couple_mesh(SystemConfig& c, std::string_view key) {
  if (key == "noc.mesh_width" && c.noc.mesh_width == 0) return false;
  if (key == "noc.mesh_width" || key == "noc.mesh_height") {
    c.num_nodes = c.noc.mesh_width * c.noc.rows();
    return true;
  }
  if (key != "num_nodes") return true;
  const std::uint32_t n = c.num_nodes;
  if (n == 0) return false;
  auto h = static_cast<std::uint32_t>(
      std::lround(std::sqrt(static_cast<double>(n))));
  while (n % h != 0) --h;
  c.noc.mesh_width = n / h;
  c.noc.mesh_height = n / h == h ? 0 : h;  // 0 = square
  return true;
}

}  // namespace

bool apply_override(SystemConfig& cfg, std::string_view key,
                    std::string_view value) {
  // Parse into a copy so a rejected value leaves cfg untouched.
  SystemConfig next = cfg;
  bool known = false;
  bool ok = false;
  for_each_key(next, [&](std::string_view name, auto& field) {
    if (name != key) return;
    known = true;
    ok = parse(value, field);
  });
  if (!known || !ok || !couple_mesh(next, key)) return false;
  cfg = next;
  return true;
}

const std::vector<std::string>& override_keys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> k;
    const SystemConfig c{};
    for_each_key(c,
                 [&](const char* name, const auto&) { k.emplace_back(name); });
    return k;
  }();
  return keys;
}

std::vector<std::string> split_list(std::string_view csv) {
  std::vector<std::string> out;
  while (!csv.empty()) {
    const std::size_t comma = csv.find(',');
    const std::string_view piece = csv.substr(0, comma);
    if (!piece.empty()) out.emplace_back(piece);
    if (comma == std::string_view::npos) break;
    csv.remove_prefix(comma + 1);
  }
  return out;
}

std::vector<std::uint64_t> parse_seed_list(std::string_view spec) {
  std::vector<std::uint64_t> seeds;
  if (const std::size_t dots = spec.find(".."); dots != std::string_view::npos) {
    std::uint64_t lo = 0, hi = 0;
    if (!parse_u64(spec.substr(0, dots), lo) ||
        !parse_u64(spec.substr(dots + 2), hi) || hi < lo) {
      throw std::invalid_argument("bad seed range '" + std::string(spec) +
                                  "' (expected e.g. 1..8)");
    }
    for (std::uint64_t s = lo; s <= hi; ++s) seeds.push_back(s);
    return seeds;
  }
  for (const std::string& piece : split_list(spec)) {
    std::uint64_t s = 0;
    if (!parse_u64(piece, s)) {
      throw std::invalid_argument("bad seed '" + piece + "'");
    }
    seeds.push_back(s);
  }
  if (seeds.empty()) {
    throw std::invalid_argument("empty seed list '" + std::string(spec) + "'");
  }
  return seeds;
}

std::vector<Scheme> parse_scheme_list(std::string_view spec) {
  if (spec == "all") {
    return {std::begin(kAllSchemes), std::end(kAllSchemes)};
  }
  std::vector<Scheme> schemes;
  for (const std::string& piece : split_list(spec)) {
    const auto s = scheme_from_string(piece);
    if (!s) throw std::invalid_argument("unknown scheme '" + piece + "'");
    schemes.push_back(*s);
  }
  if (schemes.empty()) {
    throw std::invalid_argument("empty scheme list '" + std::string(spec) +
                                "'");
  }
  return schemes;
}

std::vector<std::string> parse_workload_list(std::string_view spec) {
  // "all" keeps its historical meaning (the 8 closed-loop STAMP profiles);
  // "traffic" expands to the open-loop kernels; any registry name works
  // explicitly. The two groups compose: "all,traffic" runs everything.
  std::vector<std::string> names;
  const auto known = traffic::registry::names();
  for (const std::string& piece : split_list(spec)) {
    if (piece == "all") {
      const auto& stamp = workloads::stamp::benchmark_names();
      names.insert(names.end(), stamp.begin(), stamp.end());
    } else if (piece == "traffic") {
      for (const auto& e : traffic::registry::entries()) {
        if (e.open_loop) names.push_back(e.name);
      }
    } else if (std::find(known.begin(), known.end(), piece) != known.end()) {
      names.push_back(piece);
    } else {
      throw std::invalid_argument("unknown workload '" + piece +
                                  "' (see --list-workloads)");
    }
  }
  if (names.empty()) {
    throw std::invalid_argument("empty workload list '" + std::string(spec) +
                                "'");
  }
  return names;
}

std::vector<JobSpec> expand_grid(const GridSpec& grid) {
  traffic::registry::check_scale(grid.scale);
  for (const std::string& w : grid.workloads) {
    if (!traffic::registry::known(w)) {
      throw std::invalid_argument("unknown workload '" + w + "'");
    }
  }
  const auto& keys = override_keys();
  for (const OverrideAxis& axis : grid.overrides) {
    if (std::find(keys.begin(), keys.end(), axis.key) == keys.end()) {
      throw std::invalid_argument("unknown override key '" + axis.key +
                                  "' (see --list-keys)");
    }
  }

  // Expand the override axes' cross product once; each combo is a list of
  // (key, value) picks applied on top of the base config.
  struct Combo {
    SystemConfig config;
    std::string desc;   // "k=v k=v"
    std::string label;  // "/k=v/k=v"
  };
  std::vector<Combo> combos{{grid.base_config, "", ""}};
  for (const OverrideAxis& axis : grid.overrides) {
    std::vector<Combo> expanded;
    for (const Combo& base : combos) {
      for (const std::string& value : axis.values) {
        Combo c = base;
        if (!apply_override(c.config, axis.key, value)) {
          throw std::invalid_argument("bad value '" + value + "' for '" +
                                      axis.key + "'");
        }
        if (!c.desc.empty()) c.desc += ' ';
        c.desc += axis.key + "=" + value;
        c.label += "/" + axis.key + "=" + value;
        expanded.push_back(std::move(c));
      }
    }
    combos = std::move(expanded);
  }

  std::vector<JobSpec> specs;
  specs.reserve(grid.workloads.size() * grid.schemes.size() *
                grid.seeds.size() * combos.size());
  for (const std::string& w : grid.workloads) {
    for (const Scheme scheme : grid.schemes) {
      for (const std::uint64_t seed : grid.seeds) {
        for (const Combo& combo : combos) {
          JobSpec spec;
          spec.params.workload = w;
          spec.params.scheme = scheme;
          spec.params.seed = seed;
          spec.params.scale = grid.scale;
          spec.params.max_cycles = grid.max_cycles;
          spec.params.base_config = combo.config;
          spec.label = w + "/" + to_string(scheme) + "/s" +
                       std::to_string(seed) + combo.label;
          spec.overrides = combo.desc;
          specs.push_back(std::move(spec));
        }
      }
    }
  }
  return specs;
}

}  // namespace puno::runner

#include "runner/grid.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <map>
#include <stdexcept>

#include "traffic/registry.hpp"
#include "workloads/stamp.hpp"

namespace puno::runner {

namespace {

template <typename T>
[[nodiscard]] bool parse_unsigned(std::string_view v, T& out) {
  // from_chars takes no sign or whitespace for an unsigned type and
  // reports overflow rather than clamping.
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out);
  return ec == std::errc{} && ptr == end;
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
  out = std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0';
}

namespace {

[[nodiscard]] bool parse_bool(std::string_view v, bool& out) {
  if (v == "1" || v == "true" || v == "on") {
    out = true;
    return true;
  }
  if (v == "0" || v == "false" || v == "off") {
    out = false;
    return true;
  }
  return false;
}

using Setter = std::function<bool(SystemConfig&, std::string_view)>;

template <typename Sub>
[[nodiscard]] Setter set_u32(Sub SystemConfig::*sub,
                             std::uint32_t Sub::*field) {
  return [sub, field](SystemConfig& c, std::string_view v) {
    return parse_u32(v, c.*sub.*field);
  };
}

template <typename Sub>
[[nodiscard]] Setter set_u64(Sub SystemConfig::*sub,
                             std::uint64_t Sub::*field) {
  return [sub, field](SystemConfig& c, std::string_view v) {
    return parse_u64(v, c.*sub.*field);
  };
}

template <typename Sub>
[[nodiscard]] Setter set_f64(Sub SystemConfig::*sub, double Sub::*field) {
  return [sub, field](SystemConfig& c, std::string_view v) {
    return parse_f64(v, c.*sub.*field);
  };
}

template <typename Sub>
[[nodiscard]] Setter set_bool(Sub SystemConfig::*sub, bool Sub::*field) {
  return [sub, field](SystemConfig& c, std::string_view v) {
    return parse_bool(v, c.*sub.*field);
  };
}

/// num_nodes and the mesh dimensions must stay coupled
/// (num_nodes == mesh_width * rows()). Setting either dimension recomputes
/// num_nodes; setting num_nodes re-derives the dimensions.
[[nodiscard]] bool set_mesh_width(SystemConfig& c, std::string_view v) {
  std::uint32_t w = 0;
  if (!parse_u32(v, w) || w == 0) return false;
  c.noc.mesh_width = w;
  c.num_nodes = w * c.noc.rows();
  return true;
}

[[nodiscard]] bool set_mesh_height(SystemConfig& c, std::string_view v) {
  std::uint32_t h = 0;
  if (!parse_u32(v, h)) return false;  // 0 = square (height == width)
  c.noc.mesh_height = h;
  c.num_nodes = c.noc.mesh_width * c.noc.rows();
  return true;
}

[[nodiscard]] bool set_num_nodes(SystemConfig& c, std::string_view v) {
  std::uint32_t n = 0;
  if (!parse_u32(v, n) || n == 0) return false;
  const auto r = static_cast<std::uint32_t>(
      std::lround(std::sqrt(static_cast<double>(n))));
  if (r * r == n) {
    // Perfect square: keep the mesh square.
    c.num_nodes = n;
    c.noc.mesh_width = r;
    c.noc.mesh_height = 0;
    return true;
  }
  // Otherwise pick the most square w x h factorisation (w >= h).
  for (std::uint32_t h = r; h >= 1; --h) {
    if (n % h == 0) {
      c.num_nodes = n;
      c.noc.mesh_width = n / h;
      c.noc.mesh_height = h;
      return true;
    }
  }
  return false;
}

[[nodiscard]] const std::map<std::string, Setter>& setters() {
  static const std::map<std::string, Setter> m = {
      {"num_nodes", set_num_nodes},
      {"noc.mesh_width", set_mesh_width},
      {"noc.mesh_height", set_mesh_height},
      {"noc.vcs_per_vnet", set_u32(&SystemConfig::noc, &NocConfig::vcs_per_vnet)},
      {"noc.vc_depth", set_u32(&SystemConfig::noc, &NocConfig::vc_depth)},
      {"noc.pipeline_stages",
       set_u32(&SystemConfig::noc, &NocConfig::pipeline_stages)},
      {"noc.link_latency",
       set_u32(&SystemConfig::noc, &NocConfig::link_latency)},
      {"noc.flit_bytes", set_u32(&SystemConfig::noc, &NocConfig::flit_bytes)},
      {"noc.always_tick", set_bool(&SystemConfig::noc, &NocConfig::always_tick)},
      {"cache.l1_size_bytes",
       set_u32(&SystemConfig::cache, &CacheConfig::l1_size_bytes)},
      {"cache.l1_assoc", set_u32(&SystemConfig::cache, &CacheConfig::l1_assoc)},
      {"cache.l1_latency",
       set_u32(&SystemConfig::cache, &CacheConfig::l1_latency)},
      {"cache.l2_size_bytes",
       set_u64(&SystemConfig::cache, &CacheConfig::l2_size_bytes)},
      {"cache.l2_assoc", set_u32(&SystemConfig::cache, &CacheConfig::l2_assoc)},
      {"cache.l2_latency",
       set_u32(&SystemConfig::cache, &CacheConfig::l2_latency)},
      {"cache.memory_latency",
       set_u32(&SystemConfig::cache, &CacheConfig::memory_latency)},
      {"cache.l2_banks",
       set_u32(&SystemConfig::cache, &CacheConfig::l2_banks)},
      {"dir.sharer_rep",
       [](SystemConfig& c, std::string_view v) {
         const auto r = sharer_rep_from_string(v);
         if (!r) return false;
         c.dir.sharer_rep = *r;
         return true;
       }},
      {"dir.coarse_region",
       set_u32(&SystemConfig::dir, &DirectoryConfig::coarse_region)},
      {"dir.limited_pointers",
       set_u32(&SystemConfig::dir, &DirectoryConfig::limited_pointers)},
      {"dir.shards", set_u32(&SystemConfig::dir, &DirectoryConfig::shards)},
      {"htm.fixed_backoff",
       set_u32(&SystemConfig::htm, &HtmConfig::fixed_backoff)},
      {"htm.backoff_slot",
       set_u32(&SystemConfig::htm, &HtmConfig::backoff_slot)},
      {"htm.backoff_max_slots",
       set_u32(&SystemConfig::htm, &HtmConfig::backoff_max_slots)},
      {"htm.abort_recovery_latency",
       set_u32(&SystemConfig::htm, &HtmConfig::abort_recovery_latency)},
      {"htm.rmw_entries", set_u32(&SystemConfig::htm, &HtmConfig::rmw_entries)},
      {"htm.requester_wins_max_retries",
       set_u32(&SystemConfig::htm, &HtmConfig::requester_wins_max_retries)},
      {"htm.limited_read_entries",
       set_u32(&SystemConfig::htm, &HtmConfig::limited_read_entries)},
      {"htm.limited_write_entries",
       set_u32(&SystemConfig::htm, &HtmConfig::limited_write_entries)},
      {"puno.pbuffer_entries",
       set_u32(&SystemConfig::puno, &PunoConfig::pbuffer_entries)},
      {"puno.txlb_entries",
       set_u32(&SystemConfig::puno, &PunoConfig::txlb_entries)},
      {"puno.min_timeout",
       set_u32(&SystemConfig::puno, &PunoConfig::min_timeout)},
      {"puno.max_timeout",
       set_u32(&SystemConfig::puno, &PunoConfig::max_timeout)},
      {"puno.validity_threshold",
       [](SystemConfig& c, std::string_view v) {
         std::uint32_t n = 0;
         if (!parse_u32(v, n) || n > 0xFF) return false;
         c.puno.validity_threshold = static_cast<std::uint8_t>(n);
         return true;
       }},
      {"puno.enable_unicast",
       set_bool(&SystemConfig::puno, &PunoConfig::enable_unicast)},
      {"puno.enable_notification",
       set_bool(&SystemConfig::puno, &PunoConfig::enable_notification)},
      {"puno.max_notified_backoff",
       set_u64(&SystemConfig::puno, &PunoConfig::max_notified_backoff)},
      {"puno.timeout_fraction",
       set_f64(&SystemConfig::puno, &PunoConfig::timeout_fraction)},
      {"puno.enable_commit_hint",
       set_bool(&SystemConfig::puno, &PunoConfig::enable_commit_hint)},
      {"puno.commit_hint_entries",
       set_u32(&SystemConfig::puno, &PunoConfig::commit_hint_entries)},
      {"puno.unicast_min_sharers",
       set_u32(&SystemConfig::puno, &PunoConfig::unicast_min_sharers)},
      {"traffic.arrivals_per_node",
       set_u32(&SystemConfig::traffic, &TrafficConfig::arrivals_per_node)},
      {"traffic.keys", set_u64(&SystemConfig::traffic, &TrafficConfig::keys)},
      {"traffic.zipf_theta",
       set_f64(&SystemConfig::traffic, &TrafficConfig::zipf_theta)},
      {"traffic.hot_keys",
       set_u32(&SystemConfig::traffic, &TrafficConfig::hot_keys)},
      {"traffic.hot_frac",
       set_f64(&SystemConfig::traffic, &TrafficConfig::hot_frac)},
      {"traffic.phase_cycles",
       set_u64(&SystemConfig::traffic, &TrafficConfig::phase_cycles)},
      {"traffic.arrival",
       [](SystemConfig& c, std::string_view v) {
         const auto k = arrival_kind_from_string(v);
         if (!k) return false;
         c.traffic.arrival = *k;
         return true;
       }},
      {"traffic.rate_per_kcycle",
       set_u32(&SystemConfig::traffic, &TrafficConfig::rate_per_kcycle)},
      {"traffic.burst_on_frac",
       set_f64(&SystemConfig::traffic, &TrafficConfig::burst_on_frac)},
      {"traffic.burst_boost",
       set_f64(&SystemConfig::traffic, &TrafficConfig::burst_boost)},
      {"traffic.burst_period",
       set_u64(&SystemConfig::traffic, &TrafficConfig::burst_period)},
      {"traffic.diurnal_amplitude",
       set_f64(&SystemConfig::traffic, &TrafficConfig::diurnal_amplitude)},
      {"traffic.diurnal_period",
       set_u64(&SystemConfig::traffic, &TrafficConfig::diurnal_period)},
      {"traffic.queue_capacity",
       set_u32(&SystemConfig::traffic, &TrafficConfig::queue_capacity)},
      {"traffic.placement",
       [](SystemConfig& c, std::string_view v) {
         const auto m2 = placement_mode_from_string(v);
         if (!m2) return false;
         c.traffic.placement = *m2;
         return true;
       }},
      {"traffic.keys_per_block",
       set_u32(&SystemConfig::traffic, &TrafficConfig::keys_per_block)},
      {"traffic.update_frac",
       set_f64(&SystemConfig::traffic, &TrafficConfig::update_frac)},
      {"traffic.counter_blocks",
       set_u32(&SystemConfig::traffic, &TrafficConfig::counter_blocks)},
      {"traffic.op_think_min",
       set_u32(&SystemConfig::traffic, &TrafficConfig::op_think_min)},
      {"traffic.op_think_max",
       set_u32(&SystemConfig::traffic, &TrafficConfig::op_think_max)},
  };
  return m;
}

}  // namespace

bool apply_override(SystemConfig& cfg, std::string_view key,
                    std::string_view value) {
  const auto it = setters().find(std::string(key));
  return it != setters().end() && it->second(cfg, value);
}

const std::vector<std::string>& override_keys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> k;
    for (const auto& [name, _] : setters()) k.push_back(name);
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
  for (const std::string& w : grid.workloads) {
    if (!traffic::registry::known(w)) {
      throw std::invalid_argument("unknown workload '" + w + "'");
    }
  }
  for (const OverrideAxis& axis : grid.overrides) {
    if (setters().find(axis.key) == setters().end()) {
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

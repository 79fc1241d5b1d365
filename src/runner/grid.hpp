// Experiment grid expansion for sweep drivers (punobatch, benches).
//
// A GridSpec is the cross product workloads x schemes x seeds x every
// config-override axis; expand_grid() flattens it into the runner's JobSpec
// list in a deterministic order (workload-major, overrides innermost), so a
// grid always shards and serializes identically.
//
// Config overrides address SystemConfig fields by dotted name
// ("puno.timeout_fraction", "cache.l2_latency", ...), the keys of
// for_each_key (src/sim/config.hpp); override_keys() lists them. num_nodes
// and the mesh dimensions are coupled: setting any of them keeps
// num_nodes == mesh_width x rows(), which validate() checks.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "runner/runner.hpp"
#include "sim/config.hpp"

namespace puno::runner {

/// One override axis: a key plus the values it sweeps over.
struct OverrideAxis {
  std::string key;
  std::vector<std::string> values;
};

struct GridSpec {
  std::vector<std::string> workloads;
  std::vector<Scheme> schemes;
  std::vector<std::uint64_t> seeds = {1};
  double scale = 1.0;
  Cycle max_cycles = 30'000'000;
  SystemConfig base_config{};
  std::vector<OverrideAxis> overrides;
};

/// Checked number parsers for --set values, numeric command-line flags and
/// numeric environment variables. The whole string must be the number: the
/// unsigned ones take decimal digits only (no sign, no whitespace) and
/// reject values out of range; parse_f64 rejects nan and inf. Return false
/// on malformed input and leave `out` untouched.
[[nodiscard]] bool parse_u32(std::string_view v, std::uint32_t& out);
[[nodiscard]] bool parse_u64(std::string_view v, std::uint64_t& out);
[[nodiscard]] bool parse_f64(std::string_view v, double& out);

/// Sets one dotted-name SystemConfig field from a string value. Returns
/// false, leaving `cfg` untouched, for an unknown key or an unparseable
/// value.
[[nodiscard]] bool apply_override(SystemConfig& cfg, std::string_view key,
                                  std::string_view value);

/// Every key apply_override understands, in for_each_key order, for
/// --list-keys and diagnostics.
[[nodiscard]] const std::vector<std::string>& override_keys();

/// Flattens the grid. Throws std::invalid_argument on a bad scale
/// (traffic::registry::check_scale), an unknown workload, an unknown
/// override key or a bad override value.
[[nodiscard]] std::vector<JobSpec> expand_grid(const GridSpec& grid);

/// Splits "a,b,c" (empty pieces dropped).
[[nodiscard]] std::vector<std::string> split_list(std::string_view csv);

/// Parses "1,2,9" or the range form "1..8" (inclusive).
/// Throws std::invalid_argument on malformed input.
[[nodiscard]] std::vector<std::uint64_t> parse_seed_list(std::string_view spec);

/// Parses "all" or a csv of baseline|backoff|rmw|puno.
/// Throws std::invalid_argument on an unknown scheme name.
[[nodiscard]] std::vector<Scheme> parse_scheme_list(std::string_view spec);

/// Parses a csv of workload names from the registry. "all" expands to the 8
/// STAMP profiles (the historical meaning), "traffic" to the open-loop
/// traffic kernels; groups and names compose ("all,traffic" = everything).
/// Throws std::invalid_argument on an unknown benchmark name.
[[nodiscard]] std::vector<std::string> parse_workload_list(
    std::string_view spec);

}  // namespace puno::runner

// Cross-run fleet aggregation behind tools/punoagg.
//
// A punobatch sweep leaves three artifacts: the per-job JSONL manifest
// (config identity + outcome + artifact paths), the result JSONL (one
// RunResult row per job, same order as the manifest) and per-job telemetry
// series. This module walks one or more manifests, joins those artifacts on
// the run key (runner/run_key.hpp), and produces:
//
//   - deterministic aggregate rows (host-time fields dropped, an older
//     manifest's "cached" normalized to "ok", sorted by config identity)
//     that are byte-identical however many worker threads produced the
//     sweep,
//   - an append-safe aggregate JSONL on disk: rows merge into whatever is
//     already there (newest row per run key wins) and the file is
//     republished atomically (temp file + rename),
//   - the self-contained fleet dashboard comparing schemes x sizes x
//     workloads with a per-config mesh-heatmap thumbnail.
//
// Both row types list their keys once, in for_each_field below; every
// reader and writer goes through sim/jsonio.hpp's records, so a parse error
// quotes the offending token, and the file-level readers add the file and
// line.
#pragma once

#include <concepts>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace puno::runner {

/// One punobatch manifest line, as written by write_manifest_row. Optional
/// blocks (overrides, trace, telemetry, error) default to empty/0.
struct ManifestRow {
  std::uint64_t index = 0;
  std::string label;
  std::string workload;
  std::string scheme;
  std::uint64_t seed = 0;
  double scale = 1.0;
  std::uint64_t max_cycles = 0;
  std::uint64_t num_nodes = 0;
  std::uint64_t mesh_width = 0;
  std::uint64_t mesh_height = 0;
  std::string key;     ///< Run key — the cross-artifact join key.
  std::string status;  ///< "ok" | "failed" ("cached" in older manifests).
  std::uint64_t attempts = 0;
  double wall_s = 0.0;
  std::uint64_t cycles = 0;
  double cycles_per_s = 0.0;
  std::string overrides;
  std::string trace_path;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  std::string telemetry_path;
  std::uint64_t telemetry_samples = 0;
  std::uint64_t telemetry_dropped = 0;
  std::string error;

  bool operator==(const ManifestRow&) const = default;
};

/// The one list of a manifest row's keys, in write order (the for_each_key
/// idiom; see sim/jsonio.hpp's records). `Row` is ManifestRow or const
/// ManifestRow.
template <typename Row, typename Visit>
  requires std::same_as<std::remove_const_t<Row>, ManifestRow>
constexpr void for_each_field(Row& m, Visit&& visit) {
#define PUNO_FIELD(name) visit(#name, m.name)
  PUNO_FIELD(index);
  PUNO_FIELD(label);
  PUNO_FIELD(workload);
  PUNO_FIELD(scheme);
  PUNO_FIELD(seed);
  PUNO_FIELD(scale);
  PUNO_FIELD(max_cycles);
  PUNO_FIELD(num_nodes);
  PUNO_FIELD(mesh_width);
  PUNO_FIELD(mesh_height);
  PUNO_FIELD(key);
  PUNO_FIELD(status);
  PUNO_FIELD(attempts);
  PUNO_FIELD(wall_s);
  PUNO_FIELD(cycles);
  PUNO_FIELD(cycles_per_s);
  if (visit.optional(!m.overrides.empty())) {
    PUNO_FIELD(overrides);
  }
  if (visit.optional(!m.trace_path.empty() || m.trace_events > 0)) {
    PUNO_FIELD(trace_path);
    PUNO_FIELD(trace_events);
    PUNO_FIELD(trace_dropped);
  }
  if (visit.optional(!m.telemetry_path.empty() || m.telemetry_samples > 0)) {
    PUNO_FIELD(telemetry_path);
    PUNO_FIELD(telemetry_samples);
    PUNO_FIELD(telemetry_dropped);
  }
  if (visit.optional(!m.error.empty())) {
    PUNO_FIELD(error);
  }
#undef PUNO_FIELD
}

/// Parses one manifest JSONL line; unknown keys are skipped. On malformed
/// input returns false and, when `err` is non-null, stores a message quoting
/// the offending token.
[[nodiscard]] bool parse_manifest_row(std::string_view line, ManifestRow& row,
                                      std::string* err);

/// Reads a whole manifest file. Throws std::runtime_error naming the file,
/// the 1-based line and the offending token on the first malformed line.
[[nodiscard]] std::vector<ManifestRow> read_manifest_file(
    const std::filesystem::path& path);

/// One aggregate row: the config identity plus only the fields that are
/// deterministic for that config (no wall time, no attempt counts). The
/// thumbnail channel is per-tile whole-run totals from the job's telemetry
/// series — tile aborts when the series is spatial, router traversals
/// otherwise — and stays empty when the job carried no telemetry.
struct AggregateRow {
  std::string key;
  std::string workload;
  std::string scheme;
  std::uint64_t seed = 0;
  double scale = 1.0;
  std::uint64_t num_nodes = 0;
  std::uint64_t mesh_width = 0;
  std::uint64_t mesh_height = 0;
  std::string overrides;
  std::string status;  ///< "ok" (cached runs normalized) or "failed".
  std::uint64_t cycles = 0;
  bool has_result = false;  ///< Result row joined: metric fields valid.
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t false_abort_events = 0;
  std::uint64_t router_traversals = 0;
  std::string heat_channel;  ///< "aborts" | "traversals" | "".
  std::vector<std::uint64_t> tile_heat;  ///< Per-tile whole-run totals.

  bool operator==(const AggregateRow&) const = default;
};

/// The one list of an aggregate row's keys, in write order. The result
/// metrics are written only with has_result, and reading any of them sets
/// it; the heat group closes that group (sim/jsonio.hpp's records).
template <typename Row, typename Visit>
  requires std::same_as<std::remove_const_t<Row>, AggregateRow>
constexpr void for_each_field(Row& a, Visit&& visit) {
#define PUNO_FIELD(name) visit(#name, a.name)
  PUNO_FIELD(key);
  PUNO_FIELD(workload);
  PUNO_FIELD(scheme);
  PUNO_FIELD(seed);
  PUNO_FIELD(scale);
  PUNO_FIELD(num_nodes);
  PUNO_FIELD(mesh_width);
  PUNO_FIELD(mesh_height);
  if (visit.optional(!a.overrides.empty())) {
    PUNO_FIELD(overrides);
  }
  PUNO_FIELD(status);
  PUNO_FIELD(cycles);
  if (visit.optional(a.has_result)) {
    PUNO_FIELD(commits);
    PUNO_FIELD(aborts);
    PUNO_FIELD(false_abort_events);
    PUNO_FIELD(router_traversals);
  }
  if (visit.optional(!a.tile_heat.empty())) {
    PUNO_FIELD(heat_channel);
    PUNO_FIELD(tile_heat);
  }
#undef PUNO_FIELD
}

/// Deterministic ordering: workload, scheme, num_nodes, scale, overrides,
/// seed, then key as the final tiebreak.
void sort_aggregate(std::vector<AggregateRow>& rows);

/// Builds aggregate rows from one manifest. `results_path` may be empty; when
/// given it is the sweep's result JSONL (joined by row order, cross-checked
/// by workload/scheme). Per-job telemetry paths are resolved relative to the
/// manifest's directory when not found as written. Throws std::runtime_error
/// on unreadable/malformed inputs.
[[nodiscard]] std::vector<AggregateRow> aggregate_manifest(
    const std::filesystem::path& manifest_path,
    const std::filesystem::path& results_path);

/// One row as one JSON object line (conditional keys: result metrics only
/// with has_result, heat fields only when non-empty).
void write_aggregate_row(const AggregateRow& row, std::ostream& out);

/// Inverse of write_aggregate_row; same error contract as
/// parse_manifest_row.
[[nodiscard]] bool parse_aggregate_row(std::string_view line,
                                       AggregateRow& row, std::string* err);

/// Merges `rows` into the aggregate JSONL at `path` (rows already there are
/// kept unless a new row has the same run key), sorts, and republishes the
/// whole file atomically via temp + rename. Returns false with `err` set on
/// I/O failure or a malformed existing file.
[[nodiscard]] bool publish_aggregate(const std::filesystem::path& path,
                                     const std::vector<AggregateRow>& rows,
                                     std::string* err);

/// The fleet dashboard: per-workload tables of scheme columns x config rows
/// with headline metrics and heatmap thumbnails, fully self-contained HTML.
void write_fleet_dashboard(const std::vector<AggregateRow>& rows,
                           std::ostream& out);

}  // namespace puno::runner

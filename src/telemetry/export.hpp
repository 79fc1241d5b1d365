// Telemetry series serialization: JSONL (one sample object per line, the
// machine-readable interchange format), CSV (for spreadsheets/pandas) and
// the JSONL reader used by the round-trip validator.
//
// The JSONL keys and the CSV columns both come from for_each_field in
// telemetry/series.hpp. The JSONL schema is flat — every key maps to an
// integer or an integer array — and is parsed back by read_telemetry_jsonl
// (through sim/jsonio), which skips unknown keys so the schema can grow
// compatibly. Writing is fully deterministic (fixed key order, no floats),
// so two runs of the same simulation produce byte-identical files
// regardless of runner parallelism.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/series.hpp"

namespace puno::telemetry {

/// Writes one sample as a single JSONL line (trailing '\n' included).
void write_sample_jsonl(const TelemetrySample& s, std::ostream& out);

/// Writes the whole series, one line per sample.
void write_telemetry_jsonl(const std::vector<TelemetrySample>& samples,
                           std::ostream& out);

/// Parses one JSONL line back into a sample. Returns false on malformed
/// input, with a message quoting the offending token in *err if given;
/// unknown keys are skipped.
[[nodiscard]] bool read_sample_jsonl(std::string_view line,
                                     TelemetrySample& out,
                                     std::string* err = nullptr);

/// Parses a whole JSONL document (one object per line; blank lines are
/// ignored). Returns false — leaving `out` unspecified — on the first
/// malformed line; *err, if given, then names the 1-based line number and
/// quotes the offending token.
[[nodiscard]] bool read_telemetry_jsonl(std::string_view text,
                                        std::vector<TelemetrySample>& out,
                                        std::string* err = nullptr);

/// CSV header for a series of `num_nodes` tiles: every scalar in
/// for_each_field order, then `num_nodes` columns per per-node vector
/// (core0..coreN-1, router0..routerN-1). `spatial` appends the per-tile
/// channel columns (tile_aborts0.., tile_txn_pins0..).
[[nodiscard]] std::string telemetry_csv_header(std::size_t num_nodes,
                                               bool spatial = false);

/// Writes the series as CSV, header included. Spatial columns appear iff
/// the first sample carries the spatial channels.
void write_telemetry_csv(const std::vector<TelemetrySample>& samples,
                         std::size_t num_nodes, std::ostream& out);

}  // namespace puno::telemetry

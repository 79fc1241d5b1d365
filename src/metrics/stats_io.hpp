// Statistics export: CSV and JSONL serialization of the stats registry and
// of RunResult rows, for spreadsheet/pandas post-processing of experiments.
//
// JSONL schema (one flat JSON object per line, one line per RunResult): the
// keys that for_each_field in metrics/run_result.hpp lists, in its order,
// each keyed by its field name and written through sim/jsonio.hpp's
// write_record. Derived metrics (abort_rate, gd_ratio, ...) are not listed:
// they are recomputable from the raw fields. read_result_jsonl() restores
// every field and skips unknown keys, so the schema can grow compatibly; a
// malformed row fails with a message quoting the offending token.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/run_result.hpp"
#include "sim/stats.hpp"

namespace puno::metrics {

/// Writes every counter/scalar/histogram as "kind,name,field,value" rows.
void write_stats_csv(const sim::StatsRegistry& stats, std::ostream& out);

/// Header row matching write_result_csv's columns.
[[nodiscard]] std::string result_csv_header();

/// One experiment as a CSV row (workload, scheme, and every metric).
void write_result_csv(const RunResult& result, std::ostream& out);

/// Convenience: a whole sweep with header.
void write_results_csv(const std::vector<RunResult>& results,
                       std::ostream& out);

/// One experiment as one JSON object on one line (schema above, no newline
/// characters inside the object). Doubles are printed with max_digits10
/// precision so a write/read round trip is exact.
void write_result_jsonl(const RunResult& result, std::ostream& out);

/// A whole sweep, one line per result.
void write_results_jsonl(const std::vector<RunResult>& results,
                         std::ostream& out);

/// Parses one JSONL line back into a RunResult (the inverse of
/// write_result_jsonl). Returns false — leaving `result` unspecified and,
/// when `err` is non-null, a message quoting the offending token in it — on
/// malformed input; unknown keys are skipped.
[[nodiscard]] bool read_result_jsonl(std::string_view line, RunResult& result,
                                     std::string* err = nullptr);

}  // namespace puno::metrics

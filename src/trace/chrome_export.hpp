// Chrome trace-event JSON exporter (Perfetto-loadable).
//
// Output format: the "JSON Object Format" of the Chrome trace-event spec —
// `{"traceEvents":[...]}` — which Perfetto's trace-event importer accepts
// (open ui.perfetto.dev and drop the file). Track layout:
//
//   pid 0 "cores"        one tid per core: transaction spans ("X" complete
//                        events: attempt begin → commit/abort), stall and
//                        backoff spans, NACK/outcome instants.
//   pid 1 "directories"  one tid per directory: service-blocking spans,
//                        unicast/multicast decision instants, predictor
//                        instants.
//   pid 2 "noc"          one tid per NI: flit injection/ejection instants.
//
// Timestamps: Chrome's `ts` is microseconds; we write one simulated cycle
// as one microsecond so Perfetto's timeline reads directly in cycles.
//
// Determinism: the writer emits events in recording order with no
// wall-clock, hostname or path content, so the same simulation produces
// byte-identical files no matter where or under how many runner threads it
// ran (tests/trace/chrome_export_test.cpp relies on this).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "trace/recorder.hpp"

namespace puno::trace {

/// Run identity stamped into the file as metadata (otherArgs of a global
/// metadata event). Strings are copied; no ownership is retained.
struct TraceMeta {
  std::string workload;
  std::string scheme;
  std::uint64_t seed = 0;
  std::uint32_t num_nodes = 0;
  Cycle final_cycle = 0;  ///< Kernel cycle at export time; closes open spans.
};

/// Write the recorder's retained events as Chrome trace JSON.
void write_chrome_trace(const TraceRecorder& rec, const TraceMeta& meta,
                        std::ostream& out);

/// Convenience: open `path`, write, return false on I/O failure.
[[nodiscard]] bool write_chrome_trace_file(const TraceRecorder& rec,
                                           const TraceMeta& meta,
                                           const std::string& path);

/// What validate_chrome_trace() learned about a trace file.
struct ChromeTraceCheck {
  std::uint64_t events = 0;        ///< Elements of "traceEvents".
  std::uint64_t complete = 0;      ///< ph=="X" spans.
  std::uint64_t instants = 0;      ///< ph=="i" instants.
  std::uint64_t metadata = 0;      ///< ph=="M" metadata records.
};

/// Structural validator, built on sim::jsonio: parse `in` as JSON (full
/// grammar: objects, arrays, strings with escapes, numbers, literals),
/// require a top-level object with a "traceEvents" array whose elements are
/// objects each carrying string "ph" and "name" fields. Returns std::nullopt
/// (with a message quoting the offending token in *error if given) on any
/// syntax or shape violation. This is the same structure Perfetto's
/// trace-event importer requires, so a passing file loads there; used by
/// `punosim --verify-trace` and the trace_smoke test.
///
/// Memory: the whole stream is read into one string first. The writer
/// emits about 142 bytes per event, so a full default ring (2^18 events)
/// takes about 37 MB.
[[nodiscard]] std::optional<ChromeTraceCheck> validate_chrome_trace(
    std::istream& in, std::string* error = nullptr);

}  // namespace puno::trace

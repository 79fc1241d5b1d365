// The one JSON reader and escaper in the tree. Every JSON document the
// simulator writes or reads goes through here:
//   - RunResult rows and result-cache entries (metrics/stats_io,
//     runner/cache);
//   - the punobatch manifest and the fleet aggregate (runner/runner,
//     runner/aggregate);
//   - telemetry series and the dashboards' embedded arrays
//     (telemetry/export, telemetry/dashboard, telemetry/host_profiler);
//   - the Chrome trace writer and its structural validator
//     (trace/chrome_export).
//
// Readers are built from three walkers: parse_document (one object, then
// only whitespace), parse_object and parse_array. They report the first
// failure as a message quoting the offending token; the scalar parse_*
// functions consume from a std::string_view in place and just return false
// (leaving the view unspecified) on malformed input.
//
// Grammar: full JSON syntax (objects, arrays, strings with escapes,
// numbers, true/false/null). A number is -?digits(.digits)?([eE][+-]?digits)?
// (leading zeros tolerated). parse_u64 also rejects a sign and anything at
// or past 2^64, and takes a float spelling (1e3) of a value below 2^64.
// \u escapes decode to UTF-8 for the BMP only; the writers never emit
// surrogate pairs.
//
// Writing: doubles round-trip exactly (max_digits10); non-finite values,
// which JSON cannot represent, are written as 0.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace puno::sim::jsonio {

/// Escapes a string for embedding in a JSON string literal (quotes not
/// included).
[[nodiscard]] std::string escape(std::string_view s);

/// Writes a double as a JSON number that parses back to the same value.
void write_double(std::ostream& out, double v);

/// Writes `[v0,v1,...]`.
void write_u64_array(std::ostream& out, const std::vector<std::uint64_t>& v);

void skip_ws(std::string_view& s);

/// Consumes one expected punctuation character (after whitespace).
[[nodiscard]] bool consume(std::string_view& s, char c);

[[nodiscard]] bool parse_string(std::string_view& s, std::string& out);
[[nodiscard]] bool parse_double(std::string_view& s, double& v);
[[nodiscard]] bool parse_u64(std::string_view& s, std::uint64_t& v);
[[nodiscard]] bool parse_bool(std::string_view& s, bool& v);
[[nodiscard]] bool parse_double_array(std::string_view& s,
                                      std::vector<double>& out);
[[nodiscard]] bool parse_u64_array(std::string_view& s,
                                   std::vector<std::uint64_t>& out);

/// Skips one JSON value of any type (for forward-compatible unknown keys).
[[nodiscard]] bool skip_value(std::string_view& s);

/// The token a reader choked on: up to 24 characters of what remains of `s`
/// (whitespace-trimmed, never spanning a newline).
[[nodiscard]] std::string offending_token(std::string_view s);

/// Stores "<what> near '<offending_token(s)>'" in *err and returns false.
/// A message already in *err is kept, so when failures nest the innermost
/// one wins; err may be null.
bool fail(std::string_view s, const std::string& what, std::string* err);

/// Walks one object. For each member, `field(key, s)` parses the value from
/// `s` and returns false if it is malformed; send unknown keys to
/// skip_value so schemas can grow. Messages quote the failing value from
/// its start. *err should be empty on entry (see fail).
template <typename FieldFn>
[[nodiscard]] bool parse_object(std::string_view& s, FieldFn&& field,
                                std::string* err) {
  if (!consume(s, '{')) return fail(s, "expected '{'", err);
  if (consume(s, '}')) return true;
  for (;;) {
    skip_ws(s);
    const std::string_view at = s;
    std::string key;
    if (!parse_string(s, key)) return fail(at, "expected key string", err);
    if (!consume(s, ':')) return fail(s, "expected ':'", err);
    skip_ws(s);
    const std::string_view value = s;
    if (!field(key, s)) {
      return fail(value, "bad value for \"" + key + "\"", err);
    }
    if (consume(s, ',')) continue;
    if (consume(s, '}')) return true;
    return fail(s, "expected ',' or '}'", err);
  }
}

/// Walks one array: `element(s)` parses one element from `s`. Same error
/// contract as parse_object.
template <typename ElementFn>
[[nodiscard]] bool parse_array(std::string_view& s, ElementFn&& element,
                               std::string* err) {
  if (!consume(s, '[')) return fail(s, "expected '['", err);
  if (consume(s, ']')) return true;
  for (;;) {
    skip_ws(s);
    const std::string_view value = s;
    if (!element(s)) return fail(value, "bad array element", err);
    if (consume(s, ',')) continue;
    if (consume(s, ']')) return true;
    return fail(s, "expected ',' or ']'", err);
  }
}

/// A whole document holding one object (a JSONL line, a trace file):
/// clears *err, walks the object with `field` as parse_object does, and
/// rejects anything but whitespace after it.
template <typename FieldFn>
[[nodiscard]] bool parse_document(std::string_view text, FieldFn&& field,
                                  std::string* err) {
  if (err != nullptr) err->clear();
  if (!parse_object(text, field, err)) return false;
  skip_ws(text);
  if (!text.empty()) return fail(text, "trailing garbage", err);
  return true;
}

}  // namespace puno::sim::jsonio

// The one JSON reader and escaper in the tree. Every JSON document the
// simulator writes or reads goes through here:
//   - RunResult rows (metrics/stats_io);
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
//
// Rows (one flat object per JSONL line) are written and read only by
// write_record, read_record and read_records below, from the row type's one
// key list, for_each_field.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace puno {
enum class Scheme : std::uint8_t;  // sim/config.hpp
}  // namespace puno

namespace puno::sim::jsonio {

/// Escapes a string for embedding in a JSON string literal (quotes not
/// included).
[[nodiscard]] std::string escape(std::string_view s);

/// One writer per row field type: a string is quoted and escaped, a double
/// parses back to the same value, a Scheme is its display name.
void write_value(std::ostream& out, const std::string& v);
void write_value(std::ostream& out, bool v);
void write_value(std::ostream& out, std::uint32_t v);
void write_value(std::ostream& out, std::uint64_t v);
void write_value(std::ostream& out, double v);
void write_value(std::ostream& out, Scheme v);

/// Writes `[v0,v1,...]`.
template <typename T>
void write_value(std::ostream& out, const std::vector<T>& v) {
  out << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out << ',';
    write_value(out, v[i]);
  }
  out << ']';
}

void skip_ws(std::string_view& s);

/// Consumes one expected punctuation character (after whitespace).
[[nodiscard]] bool consume(std::string_view& s, char c);

[[nodiscard]] bool parse_string(std::string_view& s, std::string& out);
[[nodiscard]] bool parse_double(std::string_view& s, double& v);
[[nodiscard]] bool parse_u64(std::string_view& s, std::uint64_t& v);
[[nodiscard]] bool parse_bool(std::string_view& s, bool& v);

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

/// One reader per row field type, the inverse of write_value. A u32 above
/// 2^32-1 and an unknown scheme name are malformed.
[[nodiscard]] inline bool parse_value(std::string_view& s, std::string& v) {
  return parse_string(s, v);
}
[[nodiscard]] inline bool parse_value(std::string_view& s, bool& v) {
  return parse_bool(s, v);
}
[[nodiscard]] bool parse_value(std::string_view& s, std::uint32_t& v);
[[nodiscard]] inline bool parse_value(std::string_view& s, std::uint64_t& v) {
  return parse_u64(s, v);
}
[[nodiscard]] inline bool parse_value(std::string_view& s, double& v) {
  return parse_double(s, v);
}
[[nodiscard]] bool parse_value(std::string_view& s, Scheme& v);

template <typename T>
[[nodiscard]] bool parse_value(std::string_view& s, std::vector<T>& out) {
  out.clear();
  return parse_array(
      s,
      [&](std::string_view& e) {
        T v{};
        if (!parse_value(e, v)) return false;
        out.push_back(v);
        return true;
      },
      nullptr);
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

// Records. A row type lists its keys once, in a for_each_field found by
// argument-dependent lookup next to the struct (the for_each_key idiom of
// sim/config.hpp):
//
//   template <typename Row, typename Visit>  // Row is T or const T
//   constexpr void for_each_field(Row& row, Visit&& visit) {
//   #define PUNO_FIELD(name) visit(#name, row.name)
//     PUNO_FIELD(a);
//     if (visit.optional(row.b > 0)) {  // keys written only when present
//       PUNO_FIELD(b);
//     }
//   #undef PUNO_FIELD
//   }
//
// visit(key, field) sees each key in order. visit.optional(present) opens a
// group of keys: write_record writes it only when `present`, read_record
// accepts its keys always. When `present` is a bool member rather than an
// expression (AggregateRow::has_result), reading any key after it up to the
// next optional() sets that member, so such a group is followed by another
// group or ends the list.

namespace detail {

struct RecordWriter {
  std::ostream& out;
  char sep = '{';

  [[nodiscard]] bool optional(bool present) const { return present; }

  template <typename T>
  void operator()(const char* key, const T& v) {
    out << sep << '"' << key << "\":";
    write_value(out, v);
    sep = ',';
  }
};

struct FieldReader {
  std::string_view key;
  std::string_view& s;
  bool found = false;
  bool ok = false;
  bool* group = nullptr;  ///< The bool-member predicate of the open group.

  template <typename Present>
  [[nodiscard]] bool optional(Present&& present) {
    if constexpr (std::is_same_v<Present, bool&>) {
      group = &present;
    } else {
      group = nullptr;
    }
    return true;
  }

  template <typename T>
  void operator()(std::string_view name, T& field) {
    if (found || name != key) return;
    found = true;
    ok = parse_value(s, field);
    if (group != nullptr) *group = true;
  }
};

}  // namespace detail

/// Writes `row` as one JSON object line (trailing '\n' included): every key
/// its for_each_field lists, in order, minus the absent optional groups.
template <typename Row>
void write_record(std::ostream& out, const Row& row) {
  detail::RecordWriter writer{out};
  for_each_field(row, writer);
  out << "}\n";
}

/// Parses one object into a default-constructed `row`: the inverse of
/// write_record. Unknown keys are skipped so schemas can grow; errors as
/// parse_document.
template <typename Row>
[[nodiscard]] bool read_record(std::string_view line, Row& row,
                               std::string* err) {
  row = Row{};
  return parse_document(
      line,
      [&](const std::string& key, std::string_view& s) {
        detail::FieldReader reader{key, s};
        for_each_field(row, reader);
        return reader.found ? reader.ok : skip_value(s);
      },
      err);
}

/// Reads `in` line by line, one record per line; blank lines are skipped.
/// On the first malformed line returns false (leaving `out` unspecified)
/// with "line <n>: <read_record's message>" in *err, if given.
template <typename Row>
[[nodiscard]] bool read_records(std::istream& in, std::vector<Row>& out,
                                std::string* err) {
  out.clear();
  std::string line;
  for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Row row;
    if (!read_record(line, row, err)) {
      if (err != nullptr) *err = "line " + std::to_string(lineno) + ": " + *err;
      return false;
    }
    out.push_back(std::move(row));
  }
  return true;
}

}  // namespace puno::sim::jsonio

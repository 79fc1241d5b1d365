#include "telemetry/export.hpp"

#include <ostream>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "sim/jsonio.hpp"

namespace puno::telemetry {

void write_sample_jsonl(const TelemetrySample& s, std::ostream& out) {
  sim::jsonio::write_record(out, s);
}

void write_telemetry_jsonl(const std::vector<TelemetrySample>& samples,
                           std::ostream& out) {
  for (const TelemetrySample& s : samples) write_sample_jsonl(s, out);
}

bool read_sample_jsonl(std::string_view line, TelemetrySample& out,
                       std::string* err) {
  return sim::jsonio::read_record(line, out, err);
}

bool read_telemetry_jsonl(std::string_view text,
                          std::vector<TelemetrySample>& out,
                          std::string* err) {
  std::istringstream in{std::string(text)};
  return sim::jsonio::read_records(in, out, err);
}

namespace {

/// Per-node vectors whose CSV columns keep their historical names.
constexpr std::pair<std::string_view, std::string_view> kColumnPrefixes[] = {
    {"core_state", "core"}, {"router_traversals", "router"}};

std::string_view column_prefix(std::string_view field) {
  for (const auto& [name, prefix] : kColumnPrefixes) {
    if (name == field) return prefix;
  }
  return field;
}

/// One CSV line over for_each_field: the column names when `header`, else
/// the sample's values. Walked twice, scalars first and then each per-node
/// vector as `num_nodes` zero-padded columns <prefix><i>. The spatial group
/// follows the series (its first sample), not each sample.
struct CsvLine {
  std::ostream& out;
  std::size_t num_nodes;
  bool spatial;
  bool header;
  bool vectors = false;
  bool first = true;

  [[nodiscard]] bool optional(bool) const { return spatial; }

  void comma() {
    if (!first) out << ',';
    first = false;
  }

  template <typename T>
  void operator()(std::string_view key, const T& v) {
    if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>) {
      if (!vectors) return;
      for (std::size_t i = 0; i < num_nodes; ++i) {
        comma();
        if (header) {
          out << column_prefix(key) << i;
        } else {
          out << (i < v.size() ? v[i] : 0);
        }
      }
    } else {
      if (vectors) return;
      comma();
      if (header) {
        out << key;
      } else {
        out << v;
      }
    }
  }
};

void write_csv_line(std::ostream& out, const TelemetrySample& s,
                    std::size_t num_nodes, bool spatial, bool header) {
  CsvLine line{out, num_nodes, spatial, header};
  for_each_field(s, line);
  line.vectors = true;
  for_each_field(s, line);
}

}  // namespace

std::string telemetry_csv_header(std::size_t num_nodes, bool spatial) {
  std::ostringstream h;
  write_csv_line(h, TelemetrySample{}, num_nodes, spatial, true);
  return h.str();
}

void write_telemetry_csv(const std::vector<TelemetrySample>& samples,
                         std::size_t num_nodes, std::ostream& out) {
  const bool spatial = !samples.empty() && samples.front().spatial();
  out << telemetry_csv_header(num_nodes, spatial) << '\n';
  for (const TelemetrySample& s : samples) {
    write_csv_line(out, s, num_nodes, spatial, false);
    out << '\n';
  }
}

}  // namespace puno::telemetry

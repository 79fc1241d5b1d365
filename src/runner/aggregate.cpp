#include "runner/aggregate.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#ifdef _WIN32
#include <process.h>
#define PUNO_GETPID _getpid
#else
#include <unistd.h>
#define PUNO_GETPID getpid
#endif

#include "metrics/run_result.hpp"
#include "sim/jsonio.hpp"
#include "telemetry/heatmap.hpp"
#include "telemetry/html.hpp"
#include "telemetry/series.hpp"

namespace puno::runner {

namespace fs = std::filesystem;
namespace jio = sim::jsonio;

bool parse_manifest_row(std::string_view line, ManifestRow& row,
                        std::string* err) {
  return jio::read_record(line, row, err);
}

std::vector<ManifestRow> read_manifest_file(const fs::path& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    throw std::runtime_error("cannot read manifest '" + path.string() + "'");
  }
  std::vector<ManifestRow> rows;
  std::string err;
  if (!jio::read_records(in, rows, &err)) {
    throw std::runtime_error(path.string() + ": " + err);
  }
  return rows;
}

void sort_aggregate(std::vector<AggregateRow>& rows) {
  std::stable_sort(rows.begin(), rows.end(),
                   [](const AggregateRow& a, const AggregateRow& b) {
                     return std::tie(a.workload, a.scheme, a.num_nodes,
                                     a.scale, a.overrides, a.seed, a.key) <
                            std::tie(b.workload, b.scheme, b.num_nodes,
                                     b.scale, b.overrides, b.seed, b.key);
                   });
}

namespace {

/// Per-tile whole-run totals from one job's telemetry series: tile aborts
/// when the series carries the spatial channels, router traversals
/// otherwise. A missing or empty file yields no thumbnail (not an error —
/// artifacts move around); a malformed one throws.
void join_telemetry(const fs::path& manifest_dir, const ManifestRow& m,
                    AggregateRow& row) {
  if (m.telemetry_path.empty()) return;
  fs::path p = m.telemetry_path;
  if (!fs::exists(p)) p = manifest_dir / m.telemetry_path;
  if (!fs::exists(p)) return;
  std::ifstream in(p);
  std::vector<telemetry::TelemetrySample> samples;
  std::string err;
  if (!jio::read_records(in, samples, &err)) {
    throw std::runtime_error("malformed telemetry series '" + p.string() +
                             "': " + err);
  }
  if (samples.empty()) return;
  const bool spatial = samples.front().spatial();
  const auto& probe = spatial ? samples.front().tile_aborts
                              : samples.front().router_traversals;
  if (probe.empty()) return;
  row.heat_channel = spatial ? "aborts" : "traversals";
  row.tile_heat.assign(probe.size(), 0);
  for (const telemetry::TelemetrySample& s : samples) {
    const auto& v = spatial ? s.tile_aborts : s.router_traversals;
    for (std::size_t i = 0; i < row.tile_heat.size() && i < v.size(); ++i) {
      row.tile_heat[i] += v[i];
    }
  }
}

}  // namespace

std::vector<AggregateRow> aggregate_manifest(const fs::path& manifest_path,
                                             const fs::path& results_path) {
  const std::vector<ManifestRow> manifest = read_manifest_file(manifest_path);

  std::vector<metrics::RunResult> results;
  if (!results_path.empty()) {
    std::ifstream in(results_path);
    if (!in.is_open()) {
      throw std::runtime_error("cannot read results '" +
                               results_path.string() + "'");
    }
    std::string err;
    if (!jio::read_records(in, results, &err)) {
      throw std::runtime_error(results_path.string() + ": " + err);
    }
    if (results.size() != manifest.size()) {
      throw std::runtime_error(
          results_path.string() + ": " + std::to_string(results.size()) +
          " result rows for " + std::to_string(manifest.size()) +
          " manifest rows in '" + manifest_path.string() + "'");
    }
  }

  const fs::path dir = manifest_path.parent_path();
  std::vector<AggregateRow> rows;
  rows.reserve(manifest.size());
  for (const ManifestRow& m : manifest) {
    // Manifest rows are written in completion order; the recorded index is
    // the spec position, which is the result JSONL's row order.
    const std::size_t i = m.index;
    AggregateRow row;
    row.key = m.key;
    row.workload = m.workload;
    row.scheme = m.scheme;
    row.seed = m.seed;
    row.scale = m.scale;
    row.num_nodes = m.num_nodes;
    row.mesh_width = m.mesh_width;
    row.mesh_height = m.mesh_height;
    row.overrides = m.overrides;
    // Manifests written while the runner kept a result cache mark a served
    // row "cached"; it is the same experiment as a fresh simulation.
    row.status = m.status == "cached" ? "ok" : m.status;
    row.cycles = m.cycles;
    if (i < results.size()) {
      const metrics::RunResult& r = results[i];
      if (r.workload != m.workload ||
          std::string(to_string(r.scheme)) != m.scheme) {
        throw std::runtime_error(
            results_path.string() + ": row " + std::to_string(i + 1) +
            " is " + r.workload + "/" + to_string(r.scheme) +
            ", manifest row is " + m.workload + "/" + m.scheme);
      }
      row.has_result = true;
      row.commits = r.commits;
      row.aborts = r.aborts;
      row.false_abort_events = r.false_abort_events;
      row.router_traversals = r.router_traversals;
    }
    join_telemetry(dir, m, row);
    rows.push_back(std::move(row));
  }
  return rows;
}

void write_aggregate_row(const AggregateRow& row, std::ostream& out) {
  jio::write_record(out, row);
}

bool parse_aggregate_row(std::string_view line, AggregateRow& row,
                         std::string* err) {
  return jio::read_record(line, row, err);
}

namespace {

/// Publishes a file atomically: `write` fills a temp file next to `path`,
/// named uniquely per writer (pid + thread), which is flushed and renamed
/// over `path`, so readers never see a torn file. On failure the temp file
/// is removed and false returned, with a message in *err if given.
bool publish_atomically(const fs::path& path,
                        const std::function<void(std::ostream&)>& write,
                        std::string* err) {
  // Unique temp name per writer (pid + thread) in the target's directory,
  // so concurrent publishers never interleave; rename() makes publication
  // atomic on POSIX filesystems.
  std::ostringstream tmp_name;
  tmp_name << path.filename().string() << ".tmp." << PUNO_GETPID() << "."
           << std::hash<std::thread::id>{}(std::this_thread::get_id());
  const fs::path tmp =
      (path.has_parent_path() ? path.parent_path() : fs::path(".")) /
      tmp_name.str();
  std::error_code ec;
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.is_open()) {
      if (err != nullptr) *err = "cannot write '" + tmp.string() + "'";
      return false;
    }
    write(out);
    out.flush();
    if (!out) {
      fs::remove(tmp, ec);
      if (err != nullptr) *err = "short write to '" + tmp.string() + "'";
      return false;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    if (err != nullptr) {
      *err = "cannot publish '" + path.string() + "': " + ec.message();
    }
    std::error_code ignored;
    fs::remove(tmp, ignored);
    return false;
  }
  return true;
}

}  // namespace

bool publish_aggregate(const fs::path& path,
                       const std::vector<AggregateRow>& rows,
                       std::string* err) {
  // Keyed merge: whatever is already published survives unless this batch
  // carries a fresher row for the same run key.
  std::map<std::string, AggregateRow> merged;
  if (fs::exists(path)) {
    std::ifstream in(path);
    if (!in.is_open()) {
      if (err != nullptr) *err = "cannot read '" + path.string() + "'";
      return false;
    }
    std::vector<AggregateRow> published;
    std::string perr;
    if (!jio::read_records(in, published, &perr)) {
      if (err != nullptr) *err = path.string() + ": " + perr;
      return false;
    }
    for (AggregateRow& row : published) merged[row.key] = std::move(row);
  }
  for (const AggregateRow& row : rows) merged[row.key] = row;

  std::vector<AggregateRow> all;
  all.reserve(merged.size());
  for (auto& [k, row] : merged) all.push_back(std::move(row));
  sort_aggregate(all);

  return publish_atomically(
      path,
      [&](std::ostream& out) {
        for (const AggregateRow& row : all) write_aggregate_row(row, out);
      },
      err);
}

namespace {

/// Thumbnail cell size: the longer mesh dimension fits ~120px, floor 2px.
int thumb_cell_px(const telemetry::MeshGeometry& g) {
  const std::size_t longest =
      std::max<std::size_t>(1, std::max(g.width, g.height));
  return std::clamp(120 / static_cast<int>(longest), 2, 8);
}

/// Config identity within one workload table: everything but the scheme.
using ConfigKey =
    std::tuple<std::uint64_t, double, std::string, std::uint64_t>;

ConfigKey config_key(const AggregateRow& r) {
  return {r.num_nodes, r.scale, r.overrides, r.seed};
}

std::string config_label(const AggregateRow& r) {
  std::string label = std::to_string(r.num_nodes) + " tiles (" +
                      std::to_string(r.mesh_width) + "x" +
                      std::to_string(r.mesh_height) + ")";
  label += ", scale " + telemetry::html::fmt(r.scale);
  label += ", seed " + std::to_string(r.seed);
  if (!r.overrides.empty()) label += ", " + r.overrides;
  return label;
}

}  // namespace

void write_fleet_dashboard(const std::vector<AggregateRow>& rows,
                           std::ostream& out) {
  namespace html = telemetry::html;

  // Column order: schemes as first encountered in (sorted) row order.
  std::vector<std::string> schemes;
  std::set<std::string> workloads;
  for (const AggregateRow& r : rows) {
    if (std::find(schemes.begin(), schemes.end(), r.scheme) ==
        schemes.end()) {
      schemes.push_back(r.scheme);
    }
    workloads.insert(r.workload);
  }

  std::string style;
  style += ".hm{display:block;margin-top:4px}\n";
  style += "td{vertical-align:top}\n";
  style += ".bad{color:#d0342c;font-weight:600}\n";
  style += ".n{color:#666;font-size:.85em}\n";
  html::begin_page(out, "PUNO fleet dashboard", "PUNO fleet dashboard",
                   style);
  out << "<p class=\"meta\">" << rows.size() << " configurations &middot; "
      << workloads.size() << " workloads &middot; " << schemes.size()
      << " schemes";
  out << "</p>\n";

  for (const std::string& workload : workloads) {
    // config -> scheme -> row, in sorted-row order.
    std::map<ConfigKey, std::map<std::string, const AggregateRow*>> grid;
    for (const AggregateRow& r : rows) {
      if (r.workload == workload) grid[config_key(r)][r.scheme] = &r;
    }
    out << "<h2>" << html::escape(workload) << "</h2>\n<table><tr><th>config"
        << "</th>";
    for (const std::string& s : schemes) {
      out << "<th>" << html::escape(s) << "</th>";
    }
    out << "</tr>";
    for (const auto& [cfg, by_scheme] : grid) {
      const AggregateRow* any = by_scheme.begin()->second;
      out << "<tr><td>" << html::escape(config_label(*any)) << "</td>";
      for (const std::string& s : schemes) {
        const auto it = by_scheme.find(s);
        if (it == by_scheme.end()) {
          out << "<td class=\"n\">&mdash;</td>";
          continue;
        }
        const AggregateRow& r = *it->second;
        out << "<td>";
        if (r.status != "ok") {
          out << "<span class=\"bad\">" << html::escape(r.status)
              << "</span><br>";
        }
        out << r.cycles << " <span class=\"n\">cycles</span>";
        if (r.has_result) {
          out << "<br>" << r.commits << " <span class=\"n\">commits</span>, "
              << r.aborts << " <span class=\"n\">aborts</span><br>"
              << r.false_abort_events
              << " <span class=\"n\">false-abort events</span>";
        }
        const telemetry::MeshGeometry geom{
            r.num_nodes, r.mesh_width, r.mesh_height};
        if (!r.tile_heat.empty() && geom.valid()) {
          std::uint64_t maxv = 0;
          for (const std::uint64_t v : r.tile_heat) {
            maxv = std::max(maxv, v);
          }
          telemetry::write_heatmap_svg(out, geom, r.tile_heat, maxv, "",
                                       thumb_cell_px(geom));
          out << "<br><span class=\"n\">" << html::escape(r.heat_channel)
              << " heatmap, concentration "
              << html::fmt(telemetry::concentration_index(r.tile_heat))
              << "</span>";
        }
        out << "</td>";
      }
      out << "</tr>";
    }
    out << "</table>\n";
  }
  html::end_page(out);
}

}  // namespace puno::runner

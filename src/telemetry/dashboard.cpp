#include "telemetry/dashboard.hpp"

#include <algorithm>
#include <functional>
#include <ostream>

#include "sim/jsonio.hpp"
#include "sim/stats.hpp"
#include "telemetry/heatmap.hpp"
#include "telemetry/html.hpp"

namespace puno::telemetry {

namespace {

using html::fmt;

constexpr int kSparkW = 300;
constexpr int kSparkH = 64;

/// One inline-SVG sparkline: a filled area + line over the series, y scaled
/// to [0, max]. Values are window-level quantities; x is the sample index.
void sparkline(std::ostream& out, const std::vector<double>& ys,
               const char* color) {
  double maxy = 0;
  for (const double y : ys) maxy = std::max(maxy, y);
  out << "<svg class=\"spark\" viewBox=\"0 0 " << kSparkW << ' ' << kSparkH
      << "\" width=\"" << kSparkW << "\" height=\"" << kSparkH
      << "\" preserveAspectRatio=\"none\">";
  if (ys.size() >= 2 && maxy > 0) {
    const double dx =
        static_cast<double>(kSparkW) / static_cast<double>(ys.size() - 1);
    std::string line;
    for (std::size_t i = 0; i < ys.size(); ++i) {
      const double x = dx * static_cast<double>(i);
      const double y =
          static_cast<double>(kSparkH) * (1.0 - ys[i] / maxy * 0.92) - 2.0;
      if (!line.empty()) line += ' ';
      line += fmt(x) + ',' + fmt(std::max(1.0, y));
    }
    out << "<polygon fill=\"" << color << "\" fill-opacity=\"0.15\" points=\""
        << "0," << kSparkH << ' ' << line << ' ' << kSparkW << ','
        << kSparkH << "\"/>";
    out << "<polyline fill=\"none\" stroke=\"" << color
        << "\" stroke-width=\"1.5\" points=\"" << line << "\"/>";
  }
  out << "</svg>";
}

/// One metric card: title, the latest value + max, and a sparkline.
void card(std::ostream& out, const char* title,
          const std::vector<double>& ys, const char* color,
          const char* unit) {
  double maxy = 0;
  const double last = ys.empty() ? 0.0 : ys.back();
  for (const double y : ys) maxy = std::max(maxy, y);
  out << "<div class=\"card\"><div class=\"t\">"
      << html::escape(title) << "</div><div class=\"v\">" << fmt(last)
      << "<span class=\"u\">" << unit << " (max " << fmt(maxy)
      << ")</span></div>";
  sparkline(out, ys, color);
  out << "</div>\n";
}

std::vector<double> pluck(
    const std::vector<TelemetrySample>& ss,
    const std::function<double(const TelemetrySample&)>& f) {
  std::vector<double> ys;
  ys.reserve(ss.size());
  for (const TelemetrySample& s : ss) ys.push_back(f(s));
  return ys;
}

/// Per-window rate: delta / window, guarded against zero-width windows.
double rate(std::uint64_t delta, std::uint64_t window) {
  return window == 0 ? 0.0
                     : static_cast<double>(delta) /
                           static_cast<double>(window);
}

/// One spatial channel of the heatmap section: JSON/element-id key, human
/// label, aggregation (delta channels sum over windows, gauges peak) and
/// the sample's per-tile vector.
struct TileChannel {
  const char* key;
  const char* name;
  bool gauge;
  std::vector<std::uint64_t> TelemetrySample::*tiles;
};

constexpr TileChannel kTileChannels[] = {
    {"traversals", "router traversals", false,
     &TelemetrySample::router_traversals},
    {"aborts", "aborts (victim tile)", false, &TelemetrySample::tile_aborts},
    {"false_aborts", "false-abort events (requester tile)", false,
     &TelemetrySample::tile_false_aborts},
    {"nacks_sent", "NACKs sent", false, &TelemetrySample::tile_nacks_sent},
    {"nacks_recv", "NACKs received", false,
     &TelemetrySample::tile_nacks_recv},
    {"pbuf_evict", "P-Buffer evictions", false,
     &TelemetrySample::tile_pbuffer_evictions},
    {"ud_mispred", "UD mispredicts", false,
     &TelemetrySample::tile_ud_mispredicts},
    {"txn_pins", "L1 txn-pinned lines (peak)", true,
     &TelemetrySample::tile_txn_pins},
    {"queued", "router queue depth (peak)", true,
     &TelemetrySample::tile_router_queued},
};

/// Embedded scrubber frames are bounded to roughly this many numbers so a
/// 4096-tile page stays loadable; the time axis is decimated to fit.
constexpr std::size_t kScrubberNumberBudget = 200000;
constexpr std::size_t kScrubberMaxBuckets = 48;
constexpr std::size_t kHotspotTableK = 5;

/// The mesh heatmap section: one heatmap per channel with per-tile totals,
/// an optional time-window scrubber (inline script over embedded frames)
/// and the top-K hotspot table with a concentration index per channel.
void write_heatmap_section(std::ostream& out, const DashboardMeta& meta,
                           const std::vector<TelemetrySample>& samples) {
  const MeshGeometry geom{meta.num_nodes, meta.mesh_width, meta.mesh_height};
  if (!geom.valid() || samples.empty()) return;

  std::vector<const TileChannel*> channels;
  for (const TileChannel& c : kTileChannels) {
    if (!(samples.front().*c.tiles).empty()) channels.push_back(&c);
  }
  if (channels.empty()) return;

  // Aggregates windows [begin, end) per tile: sums for delta channels,
  // peaks for gauges.
  const auto aggregate = [&](const TileChannel& c, std::size_t begin,
                             std::size_t end) {
    std::vector<std::uint64_t> agg(geom.num_nodes, 0);
    for (std::size_t w = begin; w < end; ++w) {
      const std::vector<std::uint64_t>& v = samples[w].*c.tiles;
      for (std::size_t i = 0; i < agg.size() && i < v.size(); ++i) {
        agg[i] = c.gauge ? std::max(agg[i], v[i]) : agg[i] + v[i];
      }
    }
    return agg;
  };

  std::vector<std::vector<std::uint64_t>> totals;
  totals.reserve(channels.size());
  for (const TileChannel* c : channels) {
    totals.push_back(aggregate(*c, 0, samples.size()));
  }

  // Time decimation for the scrubber: at most kScrubberMaxBuckets frames,
  // shrunk further so channels * buckets * tiles stays within the number
  // budget. 0 or 1 buckets degrades to a static (whole-run) page.
  std::size_t buckets =
      std::min(kScrubberMaxBuckets, samples.size());
  buckets = std::min(
      buckets, std::max<std::size_t>(
                   1, kScrubberNumberBudget /
                          std::max<std::size_t>(
                              1, channels.size() * geom.num_nodes)));
  const bool scrub = buckets > 1;

  out << "<h2>Mesh heatmaps</h2>\n";
  if (scrub) {
    out << "<p class=\"meta\">time window: <input type=\"range\" "
           "id=\"hmscrub\" min=\"0\" max=\""
        << buckets
        << "\" value=\"0\" oninput=\"hmSet(this.value)\"> <span "
           "id=\"hmlabel\">whole run</span></p>\n";
  }
  out << "<div class=\"grid\">\n";
  const int cell = heatmap_cell_px(geom);
  for (std::size_t c = 0; c < channels.size(); ++c) {
    std::uint64_t maxv = 0;
    std::uint64_t sum = 0;
    for (const std::uint64_t v : totals[c]) {
      maxv = std::max(maxv, v);
      sum += v;
    }
    out << "<div class=\"hmcard\"><div class=\"t\">"
        << html::escape(channels[c]->name) << " &middot; "
        << (channels[c]->gauge ? "peak " : "total ")
        << (channels[c]->gauge ? maxv : sum) << "</div>";
    write_heatmap_svg(out, geom, totals[c], maxv, channels[c]->key, cell);
    out << "</div>\n";
  }
  out << "</div>\n";

  // Top-K hotspot table: per channel the share-weighted hottest tiles and
  // the normalized Herfindahl concentration (0 = uniform, 1 = one tile).
  out << "<table><tr><th>channel</th><th>total/peak</th>"
         "<th>concentration</th><th>top tiles</th></tr>";
  for (std::size_t c = 0; c < channels.size(); ++c) {
    std::uint64_t maxv = 0;
    std::uint64_t sum = 0;
    for (const std::uint64_t v : totals[c]) {
      maxv = std::max(maxv, v);
      sum += v;
    }
    out << "<tr><td>" << html::escape(channels[c]->name) << "</td><td>"
        << (channels[c]->gauge ? maxv : sum) << "</td><td>"
        << fmt(concentration_index(totals[c])) << "</td><td>";
    const auto spots = top_hotspots(totals[c], kHotspotTableK);
    for (std::size_t i = 0; i < spots.size(); ++i) {
      if (i != 0) out << " &middot; ";
      out << 't' << spots[i].tile << " (" << spots[i].tile % geom.width
          << ',' << spots[i].tile / geom.width << ") "
          << fmt(spots[i].share * 100.0) << '%';
    }
    if (spots.empty()) out << "&mdash;";
    out << "</td></tr>";
  }
  out << "</table>\n";

  if (!scrub) return;

  // Scrubber data + recolor script. Frame 0 is the whole run; frames 1..B
  // cover equal spans of the retained windows. hmHeat mirrors
  // heatmap.cpp's heat_color ramp exactly.
  out << "<script>\nvar HM={\"w\":" << geom.width << ",\"labels\":[\"whole "
         "run\"";
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t begin = b * samples.size() / buckets;
    const std::size_t end = (b + 1) * samples.size() / buckets;
    const std::uint64_t from =
        samples[begin].cycle - samples[begin].window;
    const std::uint64_t to = samples[end == 0 ? 0 : end - 1].cycle;
    out << ",\"cycles " << from << "-" << to << "\"";
  }
  out << "],\"channels\":[";
  for (std::size_t c = 0; c < channels.size(); ++c) {
    if (c != 0) out << ',';
    out << "{\"key\":\"" << channels[c]->key << "\",\"frames\":[";
    sim::jsonio::write_value(out, totals[c]);
    for (std::size_t b = 0; b < buckets; ++b) {
      const std::size_t begin = b * samples.size() / buckets;
      const std::size_t end = (b + 1) * samples.size() / buckets;
      out << ',';
      sim::jsonio::write_value(out, aggregate(*channels[c], begin, end));
    }
    out << "]}";
  }
  out << "]};\n"
      << "function hmHeat(t){t=Math.max(0,Math.min(1,t));"
         "function l(a,b){return Math.round(a+(b-a)*t);}"
         "return \"rgb(\"+l(243,208)+\",\"+l(246,52)+\",\"+l(251,44)+\")\";}\n"
      << "function hmSet(f){f=+f;"
         "document.getElementById(\"hmlabel\").textContent=HM.labels[f];"
         "for(var c=0;c<HM.channels.length;++c){var ch=HM.channels[c];"
         "var v=ch.frames[f];var m=0;var i;"
         "for(i=0;i<v.length;++i)if(v[i]>m)m=v[i];"
         "for(i=0;i<v.length;++i){"
         "var r=document.getElementById(ch.key+\"-\"+i);if(!r)continue;"
         "r.setAttribute(\"fill\",hmHeat(m?v[i]/m:0));"
         "var t=r.firstChild;if(t)t.textContent=\"tile \"+i+\" (\"+"
         "(i%HM.w)+\",\"+Math.floor(i/HM.w)+\"): \"+v[i];}}}\n"
      << "</script>\n";
}

void percentile_row(std::ostream& out, const char* label,
                    const sim::Histogram& h) {
  out << "<tr><td>" << label << "</td><td>" << h.total() << "</td><td>"
      << fmt(h.mean()) << "</td><td>" << h.percentile(0.50) << "</td><td>"
      << h.percentile(0.90) << "</td><td>" << h.percentile(0.99)
      << "</td></tr>";
}

}  // namespace

void write_dashboard_html(const DashboardMeta& meta,
                          const std::vector<TelemetrySample>& samples,
                          const sim::StatsRegistry* stats,
                          std::ostream& out) {
  std::string style;
  style += ".grid{display:flex;flex-wrap:wrap;gap:12px}\n";
  style += ".card{background:#fff;border:1px solid #e2e2e2;border-radius:6px;"
           "padding:8px 10px;width:" + std::to_string(kSparkW + 2) + "px}\n";
  style += ".card .t{font-weight:600;font-size:.85em;color:#444}\n";
  style += ".card .v{font-size:1.25em;margin:.1em 0}\n";
  style += ".card .u{font-size:.6em;color:#888;margin-left:.4em}\n";
  style += ".spark{display:block}\n";
  style += ".bar{fill:#4878cf}\n";
  style += ".hmcard{background:#fff;border:1px solid #e2e2e2;"
           "border-radius:6px;padding:8px 10px}\n";
  style += ".hmcard .t{font-weight:600;font-size:.85em;color:#444;"
           "margin-bottom:4px}\n";
  html::begin_page(out,
                   "PUNO telemetry — " + meta.workload + " / " + meta.scheme,
                   "PUNO telemetry dashboard", style);
  out << "<p class=\"meta\">workload <b>"
      << html::escape(meta.workload) << "</b> &middot; scheme <b>"
      << html::escape(meta.scheme) << "</b> &middot; "
      << meta.cycles << " cycles &middot; sampled every " << meta.interval
      << " cycles &middot; " << samples.size() << " windows";
  if (meta.num_nodes > 0 && meta.mesh_width > 0) {
    out << " &middot; " << meta.mesh_width << "&times;" << meta.mesh_height
        << " mesh (" << meta.num_nodes << " tiles)";
  }
  if (meta.dropped > 0) {
    out << " &middot; <b>" << meta.dropped
        << " windows dropped (series cap)</b>";
  }
  out << "</p>\n";

  // --- per-core transaction state ---
  out << "<h2>Cores</h2><div class=\"grid\">\n";
  card(out, "cores in txn",
       pluck(samples,
             [](const auto& s) { return double(s.cores_in_txn); }),
       "#2a9d4e", "cores");
  card(out, "cores aborting (backoff population)",
       pluck(samples,
             [](const auto& s) { return double(s.cores_aborting); }),
       "#d0342c", "cores");
  card(out, "live read-set blocks",
       pluck(samples,
             [](const auto& s) { return double(s.read_set_blocks); }),
       "#4878cf", "blocks");
  card(out, "live write-set blocks",
       pluck(samples,
             [](const auto& s) { return double(s.write_set_blocks); }),
       "#8c54b0", "blocks");
  out << "</div>\n";

  // --- HTM throughput ---
  out << "<h2>HTM</h2><div class=\"grid\">\n";
  card(out, "commits / kcycle",
       pluck(samples,
             [](const auto& s) { return 1e3 * rate(s.commits, s.window); }),
       "#2a9d4e", "");
  card(out, "aborts / kcycle",
       pluck(samples,
             [](const auto& s) { return 1e3 * rate(s.aborts, s.window); }),
       "#d0342c", "");
  card(out, "false aborts / kcycle",
       pluck(samples,
             [](const auto& s) {
               return 1e3 * rate(s.false_aborts, s.window);
             }),
       "#e8871e", "");
  card(out, "nacks / kcycle",
       pluck(samples,
             [](const auto& s) { return 1e3 * rate(s.nacks, s.window); }),
       "#946b2d", "");
  out << "</div>\n";

  // --- open-loop traffic (only for runs that actually offered load) ---
  bool any_offered = false;
  for (const TelemetrySample& s : samples) any_offered |= s.offered > 0;
  if (any_offered) {
    out << "<h2>Traffic</h2><div class=\"grid\">\n";
    card(out, "offered arrivals / kcycle",
         pluck(samples,
               [](const auto& s) { return 1e3 * rate(s.offered, s.window); }),
         "#4878cf", "");
    card(out, "admitted arrivals / kcycle",
         pluck(samples,
               [](const auto& s) {
                 return 1e3 * rate(s.admitted, s.window);
               }),
         "#2a9d4e", "");
    card(out, "shed arrivals / kcycle",
         pluck(samples,
               [](const auto& s) { return 1e3 * rate(s.shed, s.window); }),
         "#d0342c", "");
    card(out, "drop rate (window)",
         pluck(samples,
               [](const auto& s) {
                 const double o = static_cast<double>(s.offered);
                 return o == 0 ? 0.0 : static_cast<double>(s.shed) / o;
               }),
         "#e8871e", "");
    out << "</div>\n";
  }

  // --- directory ---
  out << "<h2>Directory</h2><div class=\"grid\">\n";
  card(out, "entries mid-service (blocked)",
       pluck(samples, [](const auto& s) { return double(s.dir_busy); }),
       "#d0342c", "entries");
  card(out, "directory occupancy",
       pluck(samples, [](const auto& s) { return double(s.dir_entries); }),
       "#4878cf", "entries");
  card(out, "TX_GETX services / kcycle",
       pluck(samples,
             [](const auto& s) {
               return 1e3 * rate(s.txgetx_services, s.window);
             }),
       "#2a9d4e", "");
  out << "</div>\n";

  // --- PUNO assist ---
  out << "<h2>PUNO</h2><div class=\"grid\">\n";
  card(out, "unicast predictions / kcycle",
       pluck(samples,
             [](const auto& s) { return 1e3 * rate(s.unicasts, s.window); }),
       "#2a9d4e", "");
  card(out, "multicast fallbacks / kcycle",
       pluck(samples,
             [](const auto& s) {
               return 1e3 * rate(s.multicasts, s.window);
             }),
       "#e8871e", "");
  card(out, "P-Buffer hit rate (window)",
       pluck(samples,
             [](const auto& s) {
               const double u = static_cast<double>(s.unicasts);
               return u == 0
                          ? 0.0
                          : 1.0 - static_cast<double>(s.mp_feedbacks) / u;
             }),
       "#4878cf", "");
  card(out, "usable P-Buffer entries",
       pluck(samples,
             [](const auto& s) { return double(s.pbuffer_usable); }),
       "#8c54b0", "entries");
  card(out, "TxLB entries",
       pluck(samples,
             [](const auto& s) { return double(s.txlb_entries); }),
       "#946b2d", "entries");
  card(out, "notified-backoff rate (of nacks)",
       pluck(samples,
             [](const auto& s) {
               const double n = static_cast<double>(s.nacks);
               return n == 0
                          ? 0.0
                          : static_cast<double>(s.notified_backoffs) / n;
             }),
       "#2a9d4e", "");
  out << "</div>\n";

  // --- NoC ---
  out << "<h2>NoC</h2><div class=\"grid\">\n";
  card(out, "flits injected / kcycle",
       pluck(samples,
             [](const auto& s) {
               return 1e3 * rate(s.flits_sent, s.window);
             }),
       "#4878cf", "");
  card(out, "switch traversals / kcycle",
       pluck(samples,
             [](const auto& s) {
               return 1e3 * rate(s.traversals, s.window);
             }),
       "#2a9d4e", "");
  card(out, "flits buffered in routers",
       pluck(samples,
             [](const auto& s) { return double(s.noc_buffered); }),
       "#e8871e", "flits");
  card(out, "flits in flight on links",
       pluck(samples,
             [](const auto& s) { return double(s.noc_inflight); }),
       "#8c54b0", "flits");
  out << "</div>\n";

  // Spatial view: per-channel mesh heatmaps with scrubber + hotspots.
  write_heatmap_section(out, meta, samples);

  // Per-router lifetime traversal share as a bar chart (sums of the
  // per-window deltas = each router's total traffic). Capped at 64 routers;
  // larger meshes are served by the heatmap above.
  if (!samples.empty() && !samples.front().router_traversals.empty() &&
      samples.front().router_traversals.size() <= 64) {
    const std::size_t n = samples.front().router_traversals.size();
    std::vector<std::uint64_t> totals(n, 0);
    for (const TelemetrySample& s : samples) {
      for (std::size_t i = 0; i < s.router_traversals.size() && i < n; ++i) {
        totals[i] += s.router_traversals[i];
      }
    }
    std::uint64_t maxt = 1;
    for (const std::uint64_t t : totals) maxt = std::max(maxt, t);
    const int bw = 18, gap = 4, h = 90;
    const int w = static_cast<int>(n) * (bw + gap);
    out << "<h2>Per-router traversals (whole run)</h2><svg width=\"" << w
        << "\" height=\"" << (h + 16) << "\">";
    for (std::size_t i = 0; i < n; ++i) {
      const int bh = static_cast<int>(
          static_cast<double>(h) * static_cast<double>(totals[i]) /
          static_cast<double>(maxt));
      const int x = static_cast<int>(i) * (bw + gap);
      out << "<rect class=\"bar\" x=\"" << x << "\" y=\"" << (h - bh)
          << "\" width=\"" << bw << "\" height=\"" << bh << "\"><title>router "
          << i << ": " << totals[i] << "</title></rect>"
          << "<text x=\"" << (x + bw / 2) << "\" y=\"" << (h + 12)
          << "\" font-size=\"9\" text-anchor=\"middle\">" << i << "</text>";
    }
    out << "</svg>\n";
  }

  // --- latency / backoff percentile table (registry histograms) ---
  if (stats != nullptr) {
    const auto& hists = stats->histograms();
    const auto len = hists.find("htm.txn_len_cycles");
    const auto back = hists.find("htm.backoff_cycles");
    if (len != hists.end() || back != hists.end()) {
      out << "<h2>Latency distributions (cycles; 256+ = overflow bucket)"
          << "</h2><table><tr><th>histogram</th><th>samples</th><th>mean"
          << "</th><th>p50</th><th>p90</th><th>p99</th></tr>";
      if (len != hists.end()) {
        percentile_row(out, "committed txn length", len->second);
      }
      if (back != hists.end()) {
        percentile_row(out, "granted backoff wait", back->second);
      }
      out << "</table>\n";
    }
  }

  html::end_page(out);
}

}  // namespace puno::telemetry

#include "telemetry/export.hpp"

#include <ostream>

#include "sim/jsonio.hpp"

namespace puno::telemetry {

namespace {

using sim::jsonio::write_u64_array;

[[nodiscard]] bool parse_sample_field(std::string_view& s,
                                      const std::string& key,
                                      TelemetrySample& r) {
  using sim::jsonio::parse_u64;
  using sim::jsonio::parse_u64_array;
  if (key == "cycle") return parse_u64(s, r.cycle);
  if (key == "window") return parse_u64(s, r.window);
  if (key == "cores_in_txn") {
    std::uint64_t v = 0;
    if (!parse_u64(s, v)) return false;
    r.cores_in_txn = static_cast<std::uint32_t>(v);
    return true;
  }
  if (key == "cores_aborting") {
    std::uint64_t v = 0;
    if (!parse_u64(s, v)) return false;
    r.cores_aborting = static_cast<std::uint32_t>(v);
    return true;
  }
  if (key == "read_set_blocks") return parse_u64(s, r.read_set_blocks);
  if (key == "write_set_blocks") return parse_u64(s, r.write_set_blocks);
  if (key == "core_state") return parse_u64_array(s, r.core_state);
  if (key == "commits") return parse_u64(s, r.commits);
  if (key == "aborts") return parse_u64(s, r.aborts);
  if (key == "false_aborts") return parse_u64(s, r.false_aborts);
  if (key == "notified_backoffs") return parse_u64(s, r.notified_backoffs);
  if (key == "nacks") return parse_u64(s, r.nacks);
  if (key == "dir_busy") return parse_u64(s, r.dir_busy);
  if (key == "dir_entries") return parse_u64(s, r.dir_entries);
  if (key == "txgetx_services") return parse_u64(s, r.txgetx_services);
  if (key == "unicasts") return parse_u64(s, r.unicasts);
  if (key == "multicasts") return parse_u64(s, r.multicasts);
  if (key == "mp_feedbacks") return parse_u64(s, r.mp_feedbacks);
  if (key == "pbuffer_usable") return parse_u64(s, r.pbuffer_usable);
  if (key == "txlb_entries") return parse_u64(s, r.txlb_entries);
  if (key == "offered") return parse_u64(s, r.offered);
  if (key == "admitted") return parse_u64(s, r.admitted);
  if (key == "shed") return parse_u64(s, r.shed);
  if (key == "flits_sent") return parse_u64(s, r.flits_sent);
  if (key == "flits_ejected") return parse_u64(s, r.flits_ejected);
  if (key == "traversals") return parse_u64(s, r.traversals);
  if (key == "noc_buffered") return parse_u64(s, r.noc_buffered);
  if (key == "noc_inflight") return parse_u64(s, r.noc_inflight);
  if (key == "router_traversals") {
    return parse_u64_array(s, r.router_traversals);
  }
  if (key == "tile_aborts") return parse_u64_array(s, r.tile_aborts);
  if (key == "tile_false_aborts") {
    return parse_u64_array(s, r.tile_false_aborts);
  }
  if (key == "tile_nacks_sent") return parse_u64_array(s, r.tile_nacks_sent);
  if (key == "tile_nacks_recv") return parse_u64_array(s, r.tile_nacks_recv);
  if (key == "tile_pbuffer_evictions") {
    return parse_u64_array(s, r.tile_pbuffer_evictions);
  }
  if (key == "tile_ud_mispredicts") {
    return parse_u64_array(s, r.tile_ud_mispredicts);
  }
  if (key == "tile_txn_pins") return parse_u64_array(s, r.tile_txn_pins);
  if (key == "tile_router_queued") {
    return parse_u64_array(s, r.tile_router_queued);
  }
  return sim::jsonio::skip_value(s);  // unknown key: forward compatibility
}

}  // namespace

void write_sample_jsonl(const TelemetrySample& s, std::ostream& out) {
  out << "{\"cycle\":" << s.cycle << ",\"window\":" << s.window
      << ",\"cores_in_txn\":" << s.cores_in_txn
      << ",\"cores_aborting\":" << s.cores_aborting
      << ",\"read_set_blocks\":" << s.read_set_blocks
      << ",\"write_set_blocks\":" << s.write_set_blocks
      << ",\"core_state\":";
  write_u64_array(out, s.core_state);
  out << ",\"commits\":" << s.commits << ",\"aborts\":" << s.aborts
      << ",\"false_aborts\":" << s.false_aborts
      << ",\"notified_backoffs\":" << s.notified_backoffs
      << ",\"nacks\":" << s.nacks << ",\"dir_busy\":" << s.dir_busy
      << ",\"dir_entries\":" << s.dir_entries
      << ",\"txgetx_services\":" << s.txgetx_services
      << ",\"unicasts\":" << s.unicasts << ",\"multicasts\":" << s.multicasts
      << ",\"mp_feedbacks\":" << s.mp_feedbacks
      << ",\"pbuffer_usable\":" << s.pbuffer_usable
      << ",\"txlb_entries\":" << s.txlb_entries
      << ",\"offered\":" << s.offered << ",\"admitted\":" << s.admitted
      << ",\"shed\":" << s.shed
      << ",\"flits_sent\":" << s.flits_sent
      << ",\"flits_ejected\":" << s.flits_ejected
      << ",\"traversals\":" << s.traversals
      << ",\"noc_buffered\":" << s.noc_buffered
      << ",\"noc_inflight\":" << s.noc_inflight
      << ",\"router_traversals\":";
  write_u64_array(out, s.router_traversals);
  // Spatial channels are conditional keys: rows from non-spatial runs stay
  // byte-identical to the pre-spatial schema (same contract as the lazy
  // traffic.* counters).
  if (s.spatial()) {
    out << ",\"tile_aborts\":";
    write_u64_array(out, s.tile_aborts);
    out << ",\"tile_false_aborts\":";
    write_u64_array(out, s.tile_false_aborts);
    out << ",\"tile_nacks_sent\":";
    write_u64_array(out, s.tile_nacks_sent);
    out << ",\"tile_nacks_recv\":";
    write_u64_array(out, s.tile_nacks_recv);
    out << ",\"tile_pbuffer_evictions\":";
    write_u64_array(out, s.tile_pbuffer_evictions);
    out << ",\"tile_ud_mispredicts\":";
    write_u64_array(out, s.tile_ud_mispredicts);
    out << ",\"tile_txn_pins\":";
    write_u64_array(out, s.tile_txn_pins);
    out << ",\"tile_router_queued\":";
    write_u64_array(out, s.tile_router_queued);
  }
  out << "}\n";
}

void write_telemetry_jsonl(const std::vector<TelemetrySample>& samples,
                           std::ostream& out) {
  for (const TelemetrySample& s : samples) write_sample_jsonl(s, out);
}

bool read_sample_jsonl(std::string_view line, TelemetrySample& out,
                       std::string* err) {
  out = TelemetrySample{};
  return sim::jsonio::parse_document(
      line,
      [&](const std::string& key, std::string_view& s) {
        return parse_sample_field(s, key, out);
      },
      err);
}

bool read_telemetry_jsonl(std::string_view text,
                          std::vector<TelemetrySample>& out,
                          std::string* err) {
  out.clear();
  std::size_t lineno = 0;
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    const std::string_view line =
        nl == std::string_view::npos ? text : text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    TelemetrySample s;
    if (!read_sample_jsonl(line, s, err)) {
      if (err != nullptr) *err = "line " + std::to_string(lineno) + ": " + *err;
      return false;
    }
    out.push_back(std::move(s));
  }
  return true;
}

namespace {

/// The spatial channels in serialization order; shared by the CSV writer
/// below so column names and values cannot drift apart.
constexpr const char* kTileChannelNames[] = {
    "tile_aborts",       "tile_false_aborts",      "tile_nacks_sent",
    "tile_nacks_recv",   "tile_pbuffer_evictions", "tile_ud_mispredicts",
    "tile_txn_pins",     "tile_router_queued"};

const std::vector<std::uint64_t>& tile_channel(const TelemetrySample& s,
                                               std::size_t channel) {
  switch (channel) {
    case 0: return s.tile_aborts;
    case 1: return s.tile_false_aborts;
    case 2: return s.tile_nacks_sent;
    case 3: return s.tile_nacks_recv;
    case 4: return s.tile_pbuffer_evictions;
    case 5: return s.tile_ud_mispredicts;
    case 6: return s.tile_txn_pins;
    default: return s.tile_router_queued;
  }
}

constexpr std::size_t kNumTileChannels =
    sizeof(kTileChannelNames) / sizeof(kTileChannelNames[0]);

}  // namespace

std::string telemetry_csv_header(std::size_t num_nodes, bool spatial) {
  std::string h =
      "cycle,window,cores_in_txn,cores_aborting,read_set_blocks,"
      "write_set_blocks,commits,aborts,false_aborts,notified_backoffs,nacks,"
      "dir_busy,dir_entries,txgetx_services,unicasts,multicasts,mp_feedbacks,"
      "pbuffer_usable,txlb_entries,offered,admitted,shed,"
      "flits_sent,flits_ejected,traversals,noc_buffered,noc_inflight";
  for (std::size_t i = 0; i < num_nodes; ++i) {
    h += ",core" + std::to_string(i);
  }
  for (std::size_t i = 0; i < num_nodes; ++i) {
    h += ",router" + std::to_string(i);
  }
  // Spatial columns are appended only for spatial series so existing
  // non-spatial CSV output stays byte-identical.
  if (spatial) {
    for (std::size_t c = 0; c < kNumTileChannels; ++c) {
      for (std::size_t i = 0; i < num_nodes; ++i) {
        h += ',' + std::string(kTileChannelNames[c]) + std::to_string(i);
      }
    }
  }
  return h;
}

void write_telemetry_csv(const std::vector<TelemetrySample>& samples,
                         std::size_t num_nodes, std::ostream& out) {
  const bool spatial = !samples.empty() && samples.front().spatial();
  out << telemetry_csv_header(num_nodes, spatial) << '\n';
  for (const TelemetrySample& s : samples) {
    out << s.cycle << ',' << s.window << ',' << s.cores_in_txn << ','
        << s.cores_aborting << ',' << s.read_set_blocks << ','
        << s.write_set_blocks << ',' << s.commits << ',' << s.aborts << ','
        << s.false_aborts << ',' << s.notified_backoffs << ',' << s.nacks
        << ',' << s.dir_busy << ',' << s.dir_entries << ','
        << s.txgetx_services << ',' << s.unicasts << ',' << s.multicasts
        << ',' << s.mp_feedbacks << ',' << s.pbuffer_usable << ','
        << s.txlb_entries << ',' << s.offered << ',' << s.admitted << ','
        << s.shed << ',' << s.flits_sent << ',' << s.flits_ejected
        << ',' << s.traversals << ',' << s.noc_buffered << ','
        << s.noc_inflight;
    for (std::size_t i = 0; i < num_nodes; ++i) {
      out << ',' << (i < s.core_state.size() ? s.core_state[i] : 0);
    }
    for (std::size_t i = 0; i < num_nodes; ++i) {
      out << ','
          << (i < s.router_traversals.size() ? s.router_traversals[i] : 0);
    }
    if (spatial) {
      for (std::size_t c = 0; c < kNumTileChannels; ++c) {
        const std::vector<std::uint64_t>& v = tile_channel(s, c);
        for (std::size_t i = 0; i < num_nodes; ++i) {
          out << ',' << (i < v.size() ? v[i] : 0);
        }
      }
    }
    out << '\n';
  }
}

}  // namespace puno::telemetry

#include "runner/cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#ifdef _WIN32
#include <process.h>
#define PUNO_GETPID _getpid
#else
#include <unistd.h>
#define PUNO_GETPID getpid
#endif

#include "metrics/stats_io.hpp"
#include "sim/jsonio.hpp"

namespace puno::runner {

namespace fs = std::filesystem;

std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

/// Doubles rendered with max_digits10 so distinct values never collapse to
/// one key and equal values always render identically.
void put(std::ostream& os, const char* name, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << ' ' << name << '=' << buf;
}

void put(std::ostream& os, const char* name, std::uint64_t v) {
  os << ' ' << name << '=' << v;
}

void put(std::ostream& os, const char* name, bool v) {
  os << ' ' << name << '=' << (v ? 1 : 0);
}

/// An entry's first line: schema version, key and the full params
/// rendering (no newline).
std::string entry_header(const metrics::ExperimentParams& params) {
  std::ostringstream os;
  os << "{\"puno_cache\":" << kCacheSchemaVersion << ",\"key\":\""
     << cache_key(params) << "\",\"params\":\""
     << sim::jsonio::escape(params_repr(params)) << "\"}";
  return os.str();
}

}  // namespace

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

std::string params_repr(const metrics::ExperimentParams& p) {
  // Every field of ExperimentParams and SystemConfig, by name. When a new
  // knob is added to either struct, add it here (the cache_key regression
  // tests enumerate the fields most likely to be forgotten).
  // Exception: p.trace and p.telemetry are deliberately NOT keyed — both
  // are observational (bit-identical simulation either way), and the runner
  // never serves a traced or sampled job from the cache because the cached
  // row carries no trace/telemetry files.
  const SystemConfig& c = p.base_config;
  std::ostringstream os;
  os << "workload=" << p.workload;
  os << " scheme=" << to_string(p.scheme);
  put(os, "seed", p.seed);
  put(os, "scale", p.scale);
  put(os, "max_cycles", p.max_cycles);
  put(os, "num_nodes", std::uint64_t{c.num_nodes});
  // c.scheme and c.seed are overwritten from the params at run time, so they
  // are deliberately not part of the key.
  put(os, "noc.mesh_width", std::uint64_t{c.noc.mesh_width});
  put(os, "noc.mesh_height", std::uint64_t{c.noc.mesh_height});
  put(os, "noc.num_vnets", std::uint64_t{c.noc.num_vnets});
  put(os, "noc.vcs_per_vnet", std::uint64_t{c.noc.vcs_per_vnet});
  put(os, "noc.vc_depth", std::uint64_t{c.noc.vc_depth});
  put(os, "noc.pipeline_stages", std::uint64_t{c.noc.pipeline_stages});
  put(os, "noc.link_latency", std::uint64_t{c.noc.link_latency});
  put(os, "noc.flit_bytes", std::uint64_t{c.noc.flit_bytes});
  put(os, "noc.always_tick", c.noc.always_tick);
  put(os, "cache.block_bytes", std::uint64_t{c.cache.block_bytes});
  put(os, "cache.l1_size_bytes", std::uint64_t{c.cache.l1_size_bytes});
  put(os, "cache.l1_assoc", std::uint64_t{c.cache.l1_assoc});
  put(os, "cache.l1_latency", std::uint64_t{c.cache.l1_latency});
  put(os, "cache.l2_size_bytes", c.cache.l2_size_bytes);
  put(os, "cache.l2_assoc", std::uint64_t{c.cache.l2_assoc});
  put(os, "cache.l2_latency", std::uint64_t{c.cache.l2_latency});
  put(os, "cache.memory_latency", std::uint64_t{c.cache.memory_latency});
  put(os, "cache.num_memory_controllers",
      std::uint64_t{c.cache.num_memory_controllers});
  put(os, "cache.l2_banks", std::uint64_t{c.cache.l2_banks});
  os << " dir.sharer_rep=" << to_string(c.dir.sharer_rep);
  put(os, "dir.coarse_region", std::uint64_t{c.dir.coarse_region});
  put(os, "dir.limited_pointers", std::uint64_t{c.dir.limited_pointers});
  put(os, "dir.shards", std::uint64_t{c.dir.shards});
  put(os, "htm.fixed_backoff", std::uint64_t{c.htm.fixed_backoff});
  put(os, "htm.backoff_slot", std::uint64_t{c.htm.backoff_slot});
  put(os, "htm.backoff_max_slots", std::uint64_t{c.htm.backoff_max_slots});
  put(os, "htm.abort_recovery_latency",
      std::uint64_t{c.htm.abort_recovery_latency});
  put(os, "htm.rmw_entries", std::uint64_t{c.htm.rmw_entries});
  put(os, "htm.requester_wins_max_retries",
      std::uint64_t{c.htm.requester_wins_max_retries});
  put(os, "htm.limited_read_entries",
      std::uint64_t{c.htm.limited_read_entries});
  put(os, "htm.limited_write_entries",
      std::uint64_t{c.htm.limited_write_entries});
  put(os, "puno.pbuffer_entries", std::uint64_t{c.puno.pbuffer_entries});
  put(os, "puno.txlb_entries", std::uint64_t{c.puno.txlb_entries});
  put(os, "puno.min_timeout", std::uint64_t{c.puno.min_timeout});
  put(os, "puno.max_timeout", std::uint64_t{c.puno.max_timeout});
  put(os, "puno.validity_threshold",
      std::uint64_t{c.puno.validity_threshold});
  put(os, "puno.enable_unicast", c.puno.enable_unicast);
  put(os, "puno.enable_notification", c.puno.enable_notification);
  put(os, "puno.max_notified_backoff", c.puno.max_notified_backoff);
  put(os, "puno.timeout_fraction", c.puno.timeout_fraction);
  put(os, "puno.enable_commit_hint", c.puno.enable_commit_hint);
  put(os, "puno.commit_hint_entries",
      std::uint64_t{c.puno.commit_hint_entries});
  put(os, "puno.unicast_min_sharers",
      std::uint64_t{c.puno.unicast_min_sharers});
  put(os, "traffic.arrivals_per_node",
      std::uint64_t{c.traffic.arrivals_per_node});
  put(os, "traffic.keys", c.traffic.keys);
  put(os, "traffic.zipf_theta", c.traffic.zipf_theta);
  put(os, "traffic.hot_keys", std::uint64_t{c.traffic.hot_keys});
  put(os, "traffic.hot_frac", c.traffic.hot_frac);
  put(os, "traffic.phase_cycles", c.traffic.phase_cycles);
  os << " traffic.arrival=" << to_string(c.traffic.arrival);
  put(os, "traffic.rate_per_kcycle",
      std::uint64_t{c.traffic.rate_per_kcycle});
  put(os, "traffic.burst_on_frac", c.traffic.burst_on_frac);
  put(os, "traffic.burst_boost", c.traffic.burst_boost);
  put(os, "traffic.burst_period", c.traffic.burst_period);
  put(os, "traffic.diurnal_amplitude", c.traffic.diurnal_amplitude);
  put(os, "traffic.diurnal_period", c.traffic.diurnal_period);
  put(os, "traffic.queue_capacity", std::uint64_t{c.traffic.queue_capacity});
  os << " traffic.placement=" << to_string(c.traffic.placement);
  put(os, "traffic.keys_per_block", std::uint64_t{c.traffic.keys_per_block});
  put(os, "traffic.update_frac", c.traffic.update_frac);
  put(os, "traffic.counter_blocks",
      std::uint64_t{c.traffic.counter_blocks});
  put(os, "traffic.op_think_min", std::uint64_t{c.traffic.op_think_min});
  put(os, "traffic.op_think_max", std::uint64_t{c.traffic.op_think_max});
  return os.str();
}

std::string cache_key(const metrics::ExperimentParams& params) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "v%d-%016llx", kCacheSchemaVersion,
                static_cast<unsigned long long>(fnv1a64(params_repr(params))));
  return buf;
}

fs::path ResultCache::default_dir() {
  if (const char* dir = std::getenv("PUNO_CACHE_DIR"); dir && dir[0] != '\0') {
    return dir;
  }
  return ".puno-cache";
}

fs::path ResultCache::entry_path(const metrics::ExperimentParams& p) const {
  return dir_ / (cache_key(p) + ".json");
}

std::optional<metrics::RunResult> ResultCache::load(
    const metrics::ExperimentParams& params) const {
  std::ifstream in(entry_path(params));
  if (!in) return std::nullopt;
  std::string header, body;
  if (!std::getline(in, header) || !std::getline(in, body)) {
    return std::nullopt;
  }
  // The header must carry this exact schema/params rendering; anything else
  // is a stale schema, a hash collision or a torn legacy entry.
  if (header != entry_header(params)) return std::nullopt;
  metrics::RunResult r;
  if (!metrics::read_result_jsonl(body, r)) return std::nullopt;
  return r;
}

bool ResultCache::store(const metrics::ExperimentParams& params,
                        const metrics::RunResult& result) const {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) return false;
  return publish_atomically(entry_path(params), [&](std::ostream& out) {
    out << entry_header(params) << '\n';
    metrics::write_result_jsonl(result, out);
  });
}

}  // namespace puno::runner

#include "runner/cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <type_traits>

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

/// One token's value: doubles with max_digits10 so distinct values never
/// collapse to one key and equal values always render identically, bools
/// as 0/1, enums by their CLI spelling.
template <typename T>
void render(std::ostream& os, const T& v) {
  if constexpr (std::is_same_v<T, double>) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
  } else if constexpr (std::is_same_v<T, bool>) {
    os << (v ? 1 : 0);
  } else if constexpr (std::is_enum_v<T>) {
    os << to_string(v);
  } else {
    os << std::uint64_t{v};
  }
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
  // The five ExperimentParams fields, then every for_each_key field, so a
  // knob is keyed exactly when it can be set. p.trace and p.telemetry are
  // deliberately NOT keyed: both are observational (bit-identical
  // simulation either way), and the runner never serves a traced or
  // sampled job from the cache because the cached row carries no
  // trace/telemetry files. base_config.scheme and .seed are overwritten
  // from the params at run time, and for_each_key does not list them.
  std::ostringstream os;
  os << "workload=" << p.workload << " scheme=" << to_string(p.scheme)
     << " seed=" << p.seed << " scale=";
  render(os, p.scale);
  os << " max_cycles=" << p.max_cycles;
  for_each_key(p.base_config, [&](const char* name, const auto& v) {
    os << ' ' << name << '=';
    render(os, v);
  });
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

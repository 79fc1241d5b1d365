// Content-addressed on-disk result cache for experiment runs.
//
// The cache key is a 64-bit FNV-1a hash of a canonical text rendering of
// the *complete* experiment configuration — every field of ExperimentParams
// and every SystemConfig key in for_each_key (src/sim/config.hpp), the same
// list `--set` walks. Any knob that can change simulated behaviour therefore
// changes the key; there is no hand-maintained "list of fields that
// matter" to fall out of date (the failure mode of the old
// .puno-bench-cache keys, which silently dropped max_cycles and most of
// SystemConfig).
//
// Layout: one file per entry, `<dir>/<key>.json`, holding a header line
// (schema version, key, the full canonical parameter rendering — used to
// reject hash collisions and stale schemas on load) followed by the
// result as one JSONL line (metrics/stats_io.hpp schema).
//
// Writes are atomic: the entry is written to a unique temp file in the same
// directory and rename()d into place, so concurrent benches sharing a cache
// directory can never observe a half-written entry. Loads of corrupt or
// mismatched entries simply report a miss.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "metrics/experiment.hpp"
#include "metrics/run_result.hpp"

namespace puno::runner {

/// Bump when simulator behaviour or the cache layout changes so every stale
/// entry self-expires. (Continues the old bench-cache numbering.)
inline constexpr int kCacheSchemaVersion = 8;

/// 64-bit FNV-1a.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view s) noexcept;

/// Canonical text rendering of every behaviour-relevant field of `params`:
/// "workload=... scheme=... seed=... scale=... max_cycles=..." followed by
/// one " key=value" token per for_each_key field. Two params serialize
/// identically iff they describe the same simulation.
[[nodiscard]] std::string params_repr(const metrics::ExperimentParams& params);

/// The content-addressed cache key: "v<schema>-<fnv1a64(params_repr) hex>".
[[nodiscard]] std::string cache_key(const metrics::ExperimentParams& params);

/// Publishes a file atomically: `write` fills a temp file next to `path`,
/// named uniquely per writer (pid + thread), which is flushed and renamed
/// over `path`, so readers never see a torn file. On failure the temp file
/// is removed and false returned, with a message in *err if given. Used by
/// ResultCache::store and publish_aggregate.
[[nodiscard]] bool publish_atomically(
    const std::filesystem::path& path,
    const std::function<void(std::ostream&)>& write,
    std::string* err = nullptr);

class ResultCache {
 public:
  explicit ResultCache(std::filesystem::path dir) : dir_(std::move(dir)) {}

  /// Default location: $PUNO_CACHE_DIR if set, else ./.puno-cache.
  [[nodiscard]] static std::filesystem::path default_dir();

  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return dir_;
  }

  /// Path the entry for `params` lives at (whether or not it exists).
  [[nodiscard]] std::filesystem::path entry_path(
      const metrics::ExperimentParams& params) const;

  /// Loads a cached result, or nullopt on miss/corruption/schema mismatch.
  [[nodiscard]] std::optional<metrics::RunResult> load(
      const metrics::ExperimentParams& params) const;

  /// Atomically stores a result (temp file + rename). Returns false on I/O
  /// failure; the cache never throws on I/O problems.
  bool store(const metrics::ExperimentParams& params,
             const metrics::RunResult& result) const;

 private:
  std::filesystem::path dir_;
};

}  // namespace puno::runner

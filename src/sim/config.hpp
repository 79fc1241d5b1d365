// System configuration (the paper's Table II, plus the knobs of every
// mechanism evaluated in Section IV).
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "sim/types.hpp"

namespace puno {

// clang-format off
/// X-macro table of contention-management schemes: X(enumerator, canonical
/// display name, short CLI spelling). The paper's four mechanisms
/// (Section IV.A) plus two extension schemes behind the same ConflictManager
/// interface. One table generates the enum, kAllSchemes, to_string and
/// scheme_from_string so the spellings can never drift apart.
#define PUNO_SCHEME_LIST(X)                                                   \
  /* Eager HTM, fixed 20-cycle retry backoff. */                              \
  X(kBaseline, "Baseline", "baseline")                                        \
  /* Randomized linear backoff on abort [Scherer&Scott]. */                   \
  X(kRandomBackoff, "Backoff", "backoff")                                     \
  /* Read-modify-write predictor [Bobba et al.]. */                           \
  X(kRmwPred, "RMW-Pred", "rmw")                                              \
  /* Predictive Unicast and Notification (this paper). */                     \
  X(kPuno, "PUNO", "puno")                                                    \
  /* TSX-style requester-wins, serialized fallback after bounded retries. */  \
  X(kRequesterWins, "RequesterWins", "reqwins")                               \
  /* FORTH-style capacity-bounded sets; overflow aborts and serializes. */    \
  X(kLimitedSet, "LimitedSet", "limited")
// clang-format on

/// Which contention-management mechanism the HTM runs (the ConflictManager
/// the registry builds for each node; see src/htm/conflict_manager.hpp).
enum class Scheme : std::uint8_t {
#define PUNO_SCHEME_ENUM(name, canonical, alias) name,
  PUNO_SCHEME_LIST(PUNO_SCHEME_ENUM)
#undef PUNO_SCHEME_ENUM
};

/// Every scheme, in enum order — what "--schemes all" expands to.
inline constexpr Scheme kAllSchemes[] = {
#define PUNO_SCHEME_VALUE(name, canonical, alias) Scheme::name,
    PUNO_SCHEME_LIST(PUNO_SCHEME_VALUE)
#undef PUNO_SCHEME_VALUE
};

[[nodiscard]] constexpr const char* to_string(Scheme s) noexcept {
  switch (s) {
#define PUNO_SCHEME_TO_STRING(name, canonical, alias) \
  case Scheme::name:                                  \
    return canonical;
    PUNO_SCHEME_LIST(PUNO_SCHEME_TO_STRING)
#undef PUNO_SCHEME_TO_STRING
  }
  return "?";
}

/// Inverse of to_string, also accepting the short lower-case CLI spellings
/// ("baseline", "backoff", ..., "reqwins", "limited") and the legacy
/// "rmw-pred". Round-trips: scheme_from_string(to_string(s)) == s for every
/// enum value. Returns nullopt for anything else.
[[nodiscard]] constexpr std::optional<Scheme> scheme_from_string(
    std::string_view s) noexcept {
#define PUNO_SCHEME_FROM_STRING(name, canonical, alias) \
  if (s == canonical || s == alias) return Scheme::name;
  PUNO_SCHEME_LIST(PUNO_SCHEME_FROM_STRING)
#undef PUNO_SCHEME_FROM_STRING
  if (s == "rmw-pred") return Scheme::kRmwPred;  // legacy spelling
  return std::nullopt;
}

// The configuration structs. Every field a run can vary is a `--set` key,
// listed once, with its field, in for_each_key below SystemConfig.

struct NocConfig {
  /// Mesh X dimension (routers per row). The paper's Table II system is the
  /// default 4x4 = 16 routers; any width x height mesh is configurable.
  std::uint32_t mesh_width = 4;
  /// Mesh Y dimension. 0 (the default) means "square": height = mesh_width.
  std::uint32_t mesh_height = 0;
  /// Three virtual networks (requests, forwards, responses) prevent
  /// protocol-level deadlock, as in GEMS/Garnet configurations. A constant:
  /// the protocol's three message classes (noc::VNet) map onto them.
  static constexpr std::uint32_t num_vnets = 3;
  std::uint32_t vcs_per_vnet = 2;    ///< Virtual channels per vnet per port.
  std::uint32_t vc_depth = 4;        ///< Flit buffer depth per VC.
  std::uint32_t pipeline_stages = 4; ///< 4-stage router (Table II).
  std::uint32_t link_latency = 1;    ///< Cycles per inter-router hop.
  std::uint32_t flit_bytes = 16;     ///< Channel width; 64B line = 4 body flits.
  /// Validation knob: tick every router/NI every cycle (the pre-active-set
  /// reference schedule) instead of only the registered active set. Produces
  /// bit-identical results by construction; the equivalence tests flip it to
  /// prove exactly that. Off by default — the active-set path is the fast one.
  bool always_tick = false;

  [[nodiscard]] std::uint32_t total_vcs() const noexcept {
    return num_vnets * vcs_per_vnet;
  }
  /// Mesh Y dimension with the square default applied.
  [[nodiscard]] std::uint32_t rows() const noexcept {
    return mesh_height == 0 ? mesh_width : mesh_height;
  }
};

struct CacheConfig {
  /// Cache-line size, fixed at 64 B: no run varies it. A power of two, so
  /// block_of can mask.
  static constexpr std::uint32_t block_bytes = 64;

  std::uint32_t l1_size_bytes = 32 * 1024;  ///< 32 KB private L1.
  std::uint32_t l1_assoc = 4;
  std::uint32_t l1_latency = 1;             ///< 1-cycle hit (Table II).

  std::uint64_t l2_size_bytes = 8ull * 1024 * 1024;  ///< 8 MB shared NUCA L2.
  std::uint32_t l2_assoc = 8;
  std::uint32_t l2_latency = 20;            ///< 20-cycle bank access.
  std::uint32_t memory_latency = 200;       ///< 200-cycle DRAM (Table II).
  /// Shared-L2 bank count; each home directory is co-located with one bank
  /// of l2_size_bytes / banks. 0 (default) = one bank per home directory
  /// (i.e. per directory shard, which defaults to per node).
  std::uint32_t l2_banks = 0;
};
static_assert(std::has_single_bit(CacheConfig::block_bytes),
              "CacheConfig::block_bytes must be a power of two");

/// How a directory entry encodes its sharer list (applied by
/// coherence::SharerSet::Params::add when the directory records a sharer).
/// Spellings are the CLI/grid values of "dir.sharer_rep".
enum class SharerRep : std::uint8_t {
  kFull = 0,     ///< Exact bit per node (the seed behaviour; default).
  kCoarse = 1,   ///< One bit per region of dir.coarse_region nodes
                 ///< (over-approximate; spurious invalidations are acked).
  kLimited = 2,  ///< dir.limited_pointers exact pointers, then overflow to
                 ///< broadcast (every node treated as a sharer).
};

[[nodiscard]] constexpr const char* to_string(SharerRep r) noexcept {
  switch (r) {
    case SharerRep::kFull: return "full";
    case SharerRep::kCoarse: return "coarse";
    case SharerRep::kLimited: return "limited";
  }
  return "?";
}

[[nodiscard]] constexpr std::optional<SharerRep> sharer_rep_from_string(
    std::string_view s) noexcept {
  if (s == "full") return SharerRep::kFull;
  if (s == "coarse") return SharerRep::kCoarse;
  if (s == "limited") return SharerRep::kLimited;
  return std::nullopt;
}

/// Directory organization knobs (scale axis: docs/SCALING.md).
struct DirectoryConfig {
  /// Sharer-list encoding of every directory entry.
  SharerRep sharer_rep = SharerRep::kFull;
  /// kCoarse: consecutive nodes covered per coarse bit.
  std::uint32_t coarse_region = 4;
  /// kLimited: exact node pointers per entry before overflow-to-broadcast
  /// (1..16).
  std::uint32_t limited_pointers = 4;
  /// Home directories the address space is interleaved over. 0 (default) =
  /// every node is a home. Must divide num_nodes; homes are spaced evenly
  /// across the id space (stride num_nodes / shards).
  std::uint32_t shards = 0;
};

struct HtmConfig {
  /// Baseline nacked-requester retry backoff (Section IV.A: fixed 20 cycles).
  std::uint32_t fixed_backoff = 20;
  /// Randomized linear backoff: slot width; window grows linearly with the
  /// number of aborts of the restarting transaction.
  std::uint32_t backoff_slot = 40;
  std::uint32_t backoff_max_slots = 32;
  /// Cycles to restore pre-transaction state from the hardware abort buffer
  /// (FASTM-style fast abort recovery).
  std::uint32_t abort_recovery_latency = 10;
  /// RMW predictor capacity: up to 256 load instructions per node.
  std::uint32_t rmw_entries = 256;
  /// RequesterWins: conflict aborts one attempt tolerates before its retry
  /// takes the serialized fallback path (TSX spirit: a few speculative
  /// tries, then a lock-like irrevocable run).
  std::uint32_t requester_wins_max_retries = 4;
  /// LimitedSet: architectural read/write set capacities in blocks. A
  /// speculative attempt that would exceed either aborts with kOverflow and
  /// retries serialized with unbounded sets.
  std::uint32_t limited_read_entries = 48;
  std::uint32_t limited_write_entries = 24;
};

/// Arrival process driven by the open-loop traffic engine (src/traffic).
/// Spellings are the CLI/grid values of "traffic.arrival".
enum class ArrivalKind : std::uint8_t {
  kPoisson = 0,  ///< Memoryless: exponential inter-arrival times.
  kOnOff = 1,    ///< Markov-style on/off bursts over a square-wave schedule.
  kDiurnal = 2,  ///< Sinusoidal rate modulation (compressed day/night).
};

[[nodiscard]] constexpr const char* to_string(ArrivalKind k) noexcept {
  switch (k) {
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kOnOff: return "onoff";
    case ArrivalKind::kDiurnal: return "diurnal";
  }
  return "?";
}

[[nodiscard]] constexpr std::optional<ArrivalKind> arrival_kind_from_string(
    std::string_view s) noexcept {
  if (s == "poisson") return ArrivalKind::kPoisson;
  if (s == "onoff") return ArrivalKind::kOnOff;
  if (s == "diurnal") return ArrivalKind::kDiurnal;
  return std::nullopt;
}

/// How the traffic engine maps logical keys onto cache blocks — the
/// memory-placement adversary (cache-line co-location / false sharing).
/// Spellings are the CLI/grid values of "traffic.placement".
enum class PlacementMode : std::uint8_t {
  kSpread = 0,   ///< One key per block: co-location forbidden.
  kPack = 1,     ///< keys_per_block *adjacent* keys share a block.
  kShuffle = 2,  ///< keys_per_block *unrelated* keys share a block (a
                 ///< deterministic permutation packs arbitrary keys
                 ///< together, like an adversarial allocator).
};

[[nodiscard]] constexpr const char* to_string(PlacementMode m) noexcept {
  switch (m) {
    case PlacementMode::kSpread: return "spread";
    case PlacementMode::kPack: return "pack";
    case PlacementMode::kShuffle: return "shuffle";
  }
  return "?";
}

[[nodiscard]] constexpr std::optional<PlacementMode>
placement_mode_from_string(std::string_view s) noexcept {
  if (s == "spread") return PlacementMode::kSpread;
  if (s == "pack") return PlacementMode::kPack;
  if (s == "shuffle") return PlacementMode::kShuffle;
  return std::nullopt;
}

/// Knobs of the open-loop production-traffic engine (docs/TRAFFIC.md).
/// Only the traffic-kernel workloads ("traffic-*") read these; the STAMP
/// profiles ignore them. Every field is a "traffic.*" key in for_each_key,
/// so it can be set and is part of the run key.
struct TrafficConfig {
  // --- workload volume -------------------------------------------------
  /// Open-loop arrival quota per core (ExperimentParams::scale multiplies
  /// it). The run ends when every core has drained its admitted arrivals.
  std::uint32_t arrivals_per_node = 512;

  // --- keyspace and skew ----------------------------------------------
  /// Logical keys in the structure under test (can far exceed cache sizes).
  std::uint64_t keys = 65536;
  /// Zipfian skew parameter theta (0 = uniform, 0.99 = YCSB default,
  /// >1 = extreme hot-key concentration). Ignored when hot_keys > 0.
  double zipf_theta = 0.99;
  /// When > 0, use a hot-set sampler instead of Zipf: hot_frac of accesses
  /// land uniformly in a hot set of this many keys.
  std::uint32_t hot_keys = 0;
  double hot_frac = 0.9;
  /// Hot-set migration period in cycles of *arrival time* (0 = static).
  /// Every period the skewed region rotates to a different key range, the
  /// phase-shifting contention a cache warmed on the old hot set mispredicts.
  std::uint64_t phase_cycles = 0;

  // --- arrival process -------------------------------------------------
  ArrivalKind arrival = ArrivalKind::kPoisson;
  /// Mean offered load per core, arrivals per 1000 cycles. (Integer so the
  /// grid sweeps cleanly; 20 = one arrival per 50 cycles per core.)
  std::uint32_t rate_per_kcycle = 20;
  /// On/off bursts: fraction of each burst_period spent "on", and the rate
  /// multiplier while on ("off" rate is scaled down to keep the mean).
  double burst_on_frac = 0.2;
  double burst_boost = 8.0;
  std::uint64_t burst_period = 50'000;
  /// Diurnal: sinusoidal modulation amplitude in [0,1) over diurnal_period.
  double diurnal_amplitude = 0.8;
  std::uint64_t diurnal_period = 200'000;

  // --- open-loop queueing ----------------------------------------------
  /// Bounded per-core arrival queue; arrivals past capacity are dropped
  /// (counted as traffic.dropped — the load-shedding signal).
  std::uint32_t queue_capacity = 64;

  // --- placement adversary ---------------------------------------------
  PlacementMode placement = PlacementMode::kSpread;
  /// Logical keys co-located per cache block under pack/shuffle (>= 2
  /// manufactures false sharing the conflict detector cannot distinguish).
  std::uint32_t keys_per_block = 4;

  // --- kernel shape ----------------------------------------------------
  /// Fraction of map/set operations that update (write) vs look up.
  double update_frac = 0.5;
  /// Distinct counter blocks for the counter kernel (small = hotter).
  std::uint32_t counter_blocks = 8;
  /// Per-op compute think time bounds (cycles).
  std::uint32_t op_think_min = 1;
  std::uint32_t op_think_max = 4;
};

struct PunoConfig {
  /// P-Buffer entries per directory (Table II: 16, one per node of the
  /// paper's CMP). On larger meshes the buffer is capacity-bounded: it
  /// tracks at most this many nodes and evicts deterministically under
  /// pressure (puno.pbuffer_evictions counts that). 0 = one entry per node.
  std::uint32_t pbuffer_entries = 16;
  std::uint32_t txlb_entries = 32;     ///< Static transactions per node.
  /// Clamp bounds for the adaptive rollover-counter timeout period.
  std::uint32_t min_timeout = 64;
  std::uint32_t max_timeout = 1u << 16;
  /// Validity threshold: only priorities with validity counter > 1 are used
  /// for unicast prediction (Section III.B).
  std::uint8_t validity_threshold = 1;
  /// Ablation switches: PUNO = predictive unicast + notification; disabling
  /// one isolates the other's contribution.
  bool enable_unicast = true;
  bool enable_notification = true;
  /// Cap on the notification-guided backoff (0 = uncapped, the paper's
  /// formula). Exposed for the sensitivity ablation.
  Cycle max_notified_backoff = 0;
  /// The rollover-counter period as a fraction of the observed average
  /// transaction length (Section III.B says the period is "determined
  /// dynamically based on the average transaction length" without giving
  /// the factor; smaller = faster staleness decay = fewer but more accurate
  /// unicasts).
  double timeout_fraction = 1.0;
  /// EXTENSION (paper Section VI, future work): when a transaction that
  /// nacked requesters commits or aborts, it sends those requesters a
  /// single-flit retry hint so they stop waiting on a (possibly stale)
  /// notification estimate. Off by default: plain PUNO.
  bool enable_commit_hint = false;
  /// Waiting requesters remembered per node for commit hints.
  std::uint32_t commit_hint_entries = 8;
  /// Minimum sharer count for unicast prediction. With a single sharer,
  /// false aborting cannot occur (a lone sharer either nacks — and then no
  /// one was aborted — or grants and the request succeeds), so a unicast
  /// can only add a wasted round trip. Default 2.
  std::uint32_t unicast_min_sharers = 2;
};

/// Hard ceiling on num_nodes (keeps NodeId in 16 bits with headroom and
/// bounds validation loops; the scale study tops out at 1024).
inline constexpr std::uint32_t kMaxNodes = 4096;

/// Top-level simulated-system configuration.
struct SystemConfig {
  std::uint32_t num_nodes = 16;  ///< Cores/tiles (Table II: 16).
  NocConfig noc;
  CacheConfig cache;
  DirectoryConfig dir;
  HtmConfig htm;
  PunoConfig puno;
  TrafficConfig traffic;
  Scheme scheme = Scheme::kBaseline;
  std::uint64_t seed = 1;

  [[nodiscard]] BlockAddr block_of(Addr a) const noexcept {
    return a & ~static_cast<Addr>(cache.block_bytes - 1);
  }
  /// Home directories with the "every node" default applied.
  [[nodiscard]] std::uint32_t dir_shards() const noexcept {
    return dir.shards == 0 ? num_nodes : dir.shards;
  }
  /// L2 bank count with the "one per home directory" default applied.
  [[nodiscard]] std::uint32_t effective_l2_banks() const noexcept {
    return cache.l2_banks == 0 ? dir_shards() : cache.l2_banks;
  }
  /// P-Buffer capacity with the "one entry per node" auto value applied.
  [[nodiscard]] std::uint32_t effective_pbuffer_entries() const noexcept {
    return puno.pbuffer_entries == 0 ? num_nodes : puno.pbuffer_entries;
  }
  /// Static NUCA home-node mapping: block address interleaved across the
  /// home directories (every node when dir.shards == 0; otherwise shards
  /// homes spaced evenly through the node-id space).
  [[nodiscard]] NodeId home_of(BlockAddr b) const noexcept {
    const std::uint64_t line = b / cache.block_bytes;
    const std::uint32_t shards = dir_shards();
    if (shards == num_nodes) return static_cast<NodeId>(line % num_nodes);
    return static_cast<NodeId>((line % shards) * (num_nodes / shards));
  }
};

/// The one list of `--set` keys: calls `visit(key, field)` for every
/// settable SystemConfig field, in declaration order. The key is the
/// field's member path ("num_nodes", "noc.mesh_width", ...). `Config` is
/// SystemConfig or const SystemConfig. runner::apply_override and
/// runner::override_keys walk it to set fields, runner::params_repr to
/// render the run key, so a knob can be set exactly when it is keyed.
/// scheme and seed are not listed: ExperimentParams carries them.
template <typename Config, typename Visit>
constexpr void for_each_key(Config& c, Visit&& visit) {
  static_assert(std::is_same_v<std::remove_const_t<Config>, SystemConfig>);
#define PUNO_KEY(path) visit(#path, c.path)
  PUNO_KEY(num_nodes);
  PUNO_KEY(noc.mesh_width);
  PUNO_KEY(noc.mesh_height);
  PUNO_KEY(noc.vcs_per_vnet);
  PUNO_KEY(noc.vc_depth);
  PUNO_KEY(noc.pipeline_stages);
  PUNO_KEY(noc.link_latency);
  PUNO_KEY(noc.flit_bytes);
  PUNO_KEY(noc.always_tick);
  PUNO_KEY(cache.l1_size_bytes);
  PUNO_KEY(cache.l1_assoc);
  PUNO_KEY(cache.l1_latency);
  PUNO_KEY(cache.l2_size_bytes);
  PUNO_KEY(cache.l2_assoc);
  PUNO_KEY(cache.l2_latency);
  PUNO_KEY(cache.memory_latency);
  PUNO_KEY(cache.l2_banks);
  PUNO_KEY(dir.sharer_rep);
  PUNO_KEY(dir.coarse_region);
  PUNO_KEY(dir.limited_pointers);
  PUNO_KEY(dir.shards);
  PUNO_KEY(htm.fixed_backoff);
  PUNO_KEY(htm.backoff_slot);
  PUNO_KEY(htm.backoff_max_slots);
  PUNO_KEY(htm.abort_recovery_latency);
  PUNO_KEY(htm.rmw_entries);
  PUNO_KEY(htm.requester_wins_max_retries);
  PUNO_KEY(htm.limited_read_entries);
  PUNO_KEY(htm.limited_write_entries);
  PUNO_KEY(puno.pbuffer_entries);
  PUNO_KEY(puno.txlb_entries);
  PUNO_KEY(puno.min_timeout);
  PUNO_KEY(puno.max_timeout);
  PUNO_KEY(puno.validity_threshold);
  PUNO_KEY(puno.enable_unicast);
  PUNO_KEY(puno.enable_notification);
  PUNO_KEY(puno.max_notified_backoff);
  PUNO_KEY(puno.timeout_fraction);
  PUNO_KEY(puno.enable_commit_hint);
  PUNO_KEY(puno.commit_hint_entries);
  PUNO_KEY(puno.unicast_min_sharers);
  PUNO_KEY(traffic.arrivals_per_node);
  PUNO_KEY(traffic.keys);
  PUNO_KEY(traffic.zipf_theta);
  PUNO_KEY(traffic.hot_keys);
  PUNO_KEY(traffic.hot_frac);
  PUNO_KEY(traffic.phase_cycles);
  PUNO_KEY(traffic.arrival);
  PUNO_KEY(traffic.rate_per_kcycle);
  PUNO_KEY(traffic.burst_on_frac);
  PUNO_KEY(traffic.burst_boost);
  PUNO_KEY(traffic.burst_period);
  PUNO_KEY(traffic.diurnal_amplitude);
  PUNO_KEY(traffic.diurnal_period);
  PUNO_KEY(traffic.queue_capacity);
  PUNO_KEY(traffic.placement);
  PUNO_KEY(traffic.keys_per_block);
  PUNO_KEY(traffic.update_frac);
  PUNO_KEY(traffic.counter_blocks);
  PUNO_KEY(traffic.op_think_min);
  PUNO_KEY(traffic.op_think_max);
#undef PUNO_KEY
}

/// Structural validation of a SystemConfig. Returns a human-readable
/// description of the first problem found, or nullopt if the configuration
/// is runnable. arch::Cmp calls this at construction and throws on error;
/// the CLIs call it up front so a bad --set fails before any simulation.
[[nodiscard]] inline std::optional<std::string> validate(
    const SystemConfig& cfg) {
  const auto rows = cfg.noc.rows();
  if (cfg.num_nodes < 2 || cfg.num_nodes > kMaxNodes)
    return std::string("num_nodes must be in [2, ") +
           std::to_string(kMaxNodes) + "]";
  if (cfg.noc.mesh_width == 0) return std::string("noc.mesh_width must be > 0");
  // 64-bit product: a huge mesh_width must not wrap onto a valid count.
  if (cfg.num_nodes != std::uint64_t{cfg.noc.mesh_width} * rows)
    return "num_nodes (" + std::to_string(cfg.num_nodes) +
           ") must equal mesh_width x mesh_height (" +
           std::to_string(cfg.noc.mesh_width) + "x" + std::to_string(rows) +
           ")";
  if (cfg.noc.flit_bytes == 0 || cfg.noc.vc_depth == 0 ||
      cfg.noc.vcs_per_vnet == 0)
    return std::string("noc.flit_bytes/vc_depth/vcs_per_vnet must be > 0");
  // The router's allocation scans keep one bit per (input port, VC) in a
  // 64-bit mask, so 5 ports x total_vcs must fit: vcs_per_vnet <= 4 at the
  // fixed 3 vnets.
  if (std::uint64_t{5} * NocConfig::num_vnets * cfg.noc.vcs_per_vnet > 64)
    return "noc.vcs_per_vnet must be <= " +
           std::to_string(64 / (5 * NocConfig::num_vnets)) + " with " +
           std::to_string(NocConfig::num_vnets) + " vnets (got " +
           std::to_string(cfg.noc.vcs_per_vnet) +
           "): 5 router ports x total VCs must fit a 64-bit mask";
  // A router input VC's ring indexes its flit slots with byte-wide head and
  // size (src/noc/flit_ring.hpp).
  if (cfg.noc.vc_depth > 255)
    return "noc.vc_depth must be in [1, 255] (got " +
           std::to_string(cfg.noc.vc_depth) +
           "): a VC ring indexes its flits with bytes";
  // The mesh's link stage returns a slot's credits two ticks after its
  // traversals, from the slot itself; link_latency >= 1 gives the ring the
  // two slots that keep it intact until then (src/noc/mesh.hpp).
  if (cfg.noc.link_latency == 0)
    return std::string("noc.link_latency must be >= 1 (got 0)");
  // The mesh holds each flit pipeline_stages - 1 cycles before it may
  // switch (src/noc/mesh.hpp); a router has at least one stage.
  if (cfg.noc.pipeline_stages == 0)
    return std::string("noc.pipeline_stages must be >= 1 (got 0)");
  if (cfg.dir.shards != 0 && (cfg.dir.shards > cfg.num_nodes ||
                              cfg.num_nodes % cfg.dir.shards != 0))
    return std::string("dir.shards must divide num_nodes");
  if (cfg.cache.l2_banks != 0 && (cfg.cache.l2_banks > cfg.num_nodes ||
                                  cfg.num_nodes % cfg.cache.l2_banks != 0))
    return std::string("cache.l2_banks must divide num_nodes");
  // CacheArray divides by the associativity.
  if (cfg.cache.l1_assoc == 0)
    return std::string("cache.l1_assoc must be >= 1 (got 0)");
  if (cfg.cache.l2_assoc == 0)
    return std::string("cache.l2_assoc must be >= 1 (got 0)");
  const std::uint64_t bank_bytes =
      cfg.cache.l2_size_bytes / cfg.effective_l2_banks();
  if (bank_bytes <
      static_cast<std::uint64_t>(cfg.cache.block_bytes) * cfg.cache.l2_assoc)
    return std::string("cache.l2_size_bytes too small for ") +
           std::to_string(cfg.effective_l2_banks()) +
           " banks (each needs >= block_bytes * l2_assoc)";
  if (cfg.dir.coarse_region == 0 || cfg.dir.coarse_region > cfg.num_nodes)
    return std::string("dir.coarse_region must be in [1, num_nodes]");
  if (cfg.dir.limited_pointers == 0 || cfg.dir.limited_pointers > 16)
    return std::string("dir.limited_pointers must be in [1, 16]");
  // The RMW predictor indexes its table by pc % entries.
  if (cfg.htm.rmw_entries == 0)
    return std::string("htm.rmw_entries must be >= 1 (got 0)");
  if (cfg.puno.txlb_entries == 0)
    return std::string("puno.txlb_entries must be > 0");
  // The P-Buffer's rollover period is clamped to [min_timeout, max_timeout]
  // and reschedules itself every period, so the range must be non-empty
  // and exclude 0.
  if (cfg.puno.min_timeout == 0)
    return std::string("puno.min_timeout must be >= 1 (got 0)");
  if (cfg.puno.max_timeout < cfg.puno.min_timeout)
    return "puno.max_timeout (" + std::to_string(cfg.puno.max_timeout) +
           ") must be >= puno.min_timeout (" +
           std::to_string(cfg.puno.min_timeout) + ")";
  return std::nullopt;
}

}  // namespace puno

#include "check/fuzz.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "arch/cmp.hpp"
#include "check/invariant_checker.hpp"
#include "metrics/experiment.hpp"
#include "metrics/stats_io.hpp"
#include "sim/rng.hpp"
#include "traffic/kernels.hpp"
#include "traffic/registry.hpp"

namespace puno::check {

namespace {

/// Decorrelated rng streams for the halves of a fuzz case.
constexpr std::uint64_t kSpecStream = 0xF022'5EED;
constexpr std::uint64_t kConfigStream = 0xC0F1'65EED;
constexpr std::uint64_t kTrafficStream = 0x70AF'F1C5;

[[nodiscard]] double uniform(sim::Rng& rng, double lo, double hi) {
  return lo + (hi - lo) * rng.next_double();
}

}  // namespace

const char* scheme_flag(Scheme s) noexcept {
  // CLI spellings straight from the scheme table, so the fuzzer's repro
  // lines cover every registered scheme automatically.
  switch (s) {
#define PUNO_SCHEME_FLAG(name, canonical, alias) \
  case Scheme::name:                             \
    return alias;
    PUNO_SCHEME_LIST(PUNO_SCHEME_FLAG)
#undef PUNO_SCHEME_FLAG
  }
  return "?";
}

workloads::SyntheticSpec make_fuzz_spec(std::uint64_t seed) {
  sim::Rng rng(seed, kSpecStream);
  workloads::SyntheticSpec spec;
  std::ostringstream name;
  name << "fuzz-" << seed;
  spec.name = name.str();
  spec.txns_per_node = static_cast<std::uint32_t>(rng.next_range(8, 32));
  // Small hot regions concentrate contention; that is where the protocol's
  // multicast/unicast and NACK/abort machinery actually gets exercised.
  spec.hot_blocks = static_cast<std::uint32_t>(rng.next_range(4, 32));
  spec.anchor_blocks = static_cast<std::uint32_t>(
      rng.next_range(1, std::min<std::uint64_t>(4, spec.hot_blocks)));
  spec.shared_blocks = static_cast<std::uint32_t>(rng.next_range(256, 1024));
  spec.private_blocks_per_node =
      static_cast<std::uint32_t>(rng.next_range(64, 256));
  spec.pre_think_min = static_cast<std::uint32_t>(rng.next_range(2, 10));
  spec.pre_think_max =
      spec.pre_think_min + static_cast<std::uint32_t>(rng.next_range(0, 20));
  spec.post_think_min = static_cast<std::uint32_t>(rng.next_range(2, 10));
  spec.post_think_max =
      spec.post_think_min + static_cast<std::uint32_t>(rng.next_range(0, 20));
  spec.private_frac = uniform(rng, 0.1, 0.5);

  const auto num_sites = rng.next_range(1, 3);
  for (std::uint64_t s = 0; s < num_sites; ++s) {
    workloads::StaticTxnSpec site;
    site.weight = uniform(rng, 0.5, 2.0);
    site.reads_min = static_cast<std::uint32_t>(rng.next_range(1, 3));
    site.reads_max =
        site.reads_min + static_cast<std::uint32_t>(rng.next_range(0, 4));
    site.writes_min = static_cast<std::uint32_t>(rng.next_range(0, 2));
    site.writes_max =
        site.writes_min + static_cast<std::uint32_t>(rng.next_range(0, 3));
    site.op_think_min = static_cast<std::uint32_t>(rng.next_range(1, 3));
    site.op_think_max =
        site.op_think_min + static_cast<std::uint32_t>(rng.next_range(0, 4));
    site.hot_read_frac = uniform(rng, 0.2, 0.9);
    site.hot_write_frac = uniform(rng, 0.2, 0.9);
    site.rmw_frac = uniform(rng, 0.0, 0.5);
    site.anchor_reads = static_cast<std::uint32_t>(rng.next_range(0, 2));
    site.anchor_writes = static_cast<std::uint32_t>(rng.next_range(0, 1));
    spec.txns.push_back(site);
  }
  return spec;
}

SystemConfig make_fuzz_config(std::uint64_t seed, Scheme scheme) {
  sim::Rng rng(seed, kConfigStream);
  SystemConfig cfg;
  // 2x2 meshes hammer the same lines hard; 4x4 is the paper's machine.
  cfg.noc.mesh_width = rng.next_bool(0.5) ? 2 : 4;
  cfg.num_nodes = cfg.noc.mesh_width * cfg.noc.mesh_width;
  cfg.scheme = scheme;
  cfg.seed = seed;
  return cfg;
}

std::string fuzz_traffic_kernel(std::uint64_t seed) {
  sim::Rng rng(seed, kTrafficStream);
  const auto kind =
      static_cast<traffic::KernelKind>(rng.next_range(0, 3));
  return std::string("traffic-") + traffic::to_string(kind);
}

SystemConfig make_fuzz_traffic_config(std::uint64_t seed, Scheme scheme) {
  SystemConfig cfg = make_fuzz_config(seed, scheme);
  sim::Rng rng(seed, kTrafficStream);
  (void)rng.next_range(0, 3);  // keep in lockstep with fuzz_traffic_kernel
  TrafficConfig& t = cfg.traffic;
  t.arrivals_per_node = static_cast<std::uint32_t>(rng.next_range(8, 32));
  t.keys = rng.next_range(256, 4096);
  if (rng.next_bool(0.3)) {
    // Hot-set mode: a handful of keys soak up most accesses.
    t.hot_keys = static_cast<std::uint32_t>(rng.next_range(4, 32));
    t.hot_frac = uniform(rng, 0.6, 0.95);
  } else {
    t.zipf_theta = uniform(rng, 0.0, 1.2);
  }
  t.phase_cycles = rng.next_bool(0.5) ? 0 : rng.next_range(5'000, 20'000);
  t.arrival = static_cast<ArrivalKind>(rng.next_range(0, 2));
  t.rate_per_kcycle = static_cast<std::uint32_t>(rng.next_range(10, 60));
  t.burst_period = rng.next_range(5'000, 50'000);
  t.diurnal_period = rng.next_range(20'000, 100'000);
  t.placement = static_cast<PlacementMode>(rng.next_range(0, 2));
  t.keys_per_block = static_cast<std::uint32_t>(rng.next_range(1, 8));
  t.update_frac = uniform(rng, 0.0, 1.0);
  t.counter_blocks = static_cast<std::uint32_t>(rng.next_range(2, 16));
  t.op_think_min = static_cast<std::uint32_t>(rng.next_range(1, 3));
  t.op_think_max =
      t.op_think_min + static_cast<std::uint32_t>(rng.next_range(0, 4));
  // No load shedding under fuzz: a drop consumes an arrival without a
  // commit, so per-node commit counts would diverge across schemes and the
  // differential oracle would misfire.
  t.queue_capacity = t.arrivals_per_node;
  return cfg;
}

RunOutcome run_one(const SystemConfig& cfg,
                   std::unique_ptr<workloads::Workload> workload,
                   const CheckerConfig& checker_cfg, Cycle max_cycles) {
  metrics::ExperimentParams params;
  params.workload = workload->name();
  params.scheme = cfg.scheme;
  params.seed = cfg.seed;
  params.max_cycles = max_cycles;
  params.base_config = cfg;
  metrics::Experiment exp(params, std::move(workload));
  arch::Cmp& cmp = exp.cmp();
  const auto checker = InvariantChecker::attach(cmp, checker_cfg);

  RunOutcome out;
  out.completed = exp.run().completed;
  // A final sweep regardless of stride alignment, so the settled end state
  // is always verified.
  checker->check_now(cmp.kernel().now());

  out.cycles = cmp.kernel().now();
  for (NodeId i = 0; i < cfg.num_nodes; ++i) {
    out.commits.push_back(cmp.core(i).committed());
  }
  out.total_committed = cmp.total_committed();
  out.falsely_aborted =
      cmp.kernel().stats().counter("htm.falsely_aborted_txns").value();
  out.violations = checker->violations();
  std::ostringstream csv;
  metrics::write_stats_csv(cmp.kernel().stats(), csv);
  out.stats_csv = csv.str();
  return out;
}

RunOutcome run_one(const SystemConfig& cfg,
                   const workloads::SyntheticSpec& spec,
                   const CheckerConfig& checker_cfg, Cycle max_cycles) {
  return run_one(cfg,
                 std::make_unique<workloads::SyntheticWorkload>(
                     spec, cfg.num_nodes, cfg.seed),
                 checker_cfg, max_cycles);
}

std::string repro_line(std::uint64_t seed, Scheme scheme, bool traffic) {
  std::ostringstream os;
  os << "punofuzz " << (traffic ? "--traffic " : "") << "--seed-start "
     << seed << " --seeds 1 --scheme " << scheme_flag(scheme)
     << " --stride 1 --invariants all";
  return os.str();
}

FuzzReport run_fuzz(const FuzzOptions& opts) {
  FuzzReport report;
  for (std::uint32_t k = 0; k < opts.num_seeds; ++k) {
    const std::uint64_t seed = opts.seed_start + k;
    const workloads::SyntheticSpec spec =
        opts.traffic ? workloads::SyntheticSpec{} : make_fuzz_spec(seed);
    const std::string kernel_name =
        opts.traffic ? fuzz_traffic_kernel(seed) : std::string();

    // One fresh workload per simulation — both workload families carry
    // per-run mutable state (rng cursors, queues).
    const auto run_case = [&](const SystemConfig& cfg,
                              const CheckerConfig& checker, Cycle cap) {
      if (!opts.traffic) return run_one(cfg, spec, checker, cap);
      return run_one(cfg, traffic::registry::make(kernel_name, cfg), checker,
                     cap);
    };

    bool have_baseline = false;
    RunOutcome baseline_out;
    // Every non-baseline outcome, kept for the differential oracle below.
    std::vector<std::pair<Scheme, RunOutcome>> others;

    for (const Scheme scheme : opts.schemes) {
      const SystemConfig cfg = opts.traffic
                                   ? make_fuzz_traffic_config(seed, scheme)
                                   : make_fuzz_config(seed, scheme);
      RunOutcome out = run_case(cfg, opts.checker, opts.max_cycles);
      ++report.runs;

      if (!out.violations.empty() && opts.checker.stride > 1) {
        // Shrink: re-run at stride 1, stopping just past the coarse hit, to
        // name the exact first failing cycle in the report.
        CheckerConfig fine = opts.checker;
        fine.stride = 1;
        const Cycle cap = out.violations.front().cycle + 1;
        RunOutcome shrunk = run_case(cfg, fine, cap);
        if (!shrunk.violations.empty()) {
          out.violations = std::move(shrunk.violations);
        }
      }

      if (!out.violations.empty()) {
        ++report.violation_runs;
        report.repro_lines.push_back(repro_line(seed, scheme, opts.traffic));
        if (opts.log != nullptr) {
          *opts.log << "FAIL seed " << seed << " scheme "
                    << to_string(scheme) << ": "
                    << format_violation(out.violations.front())
                    << "\n  repro: " << report.repro_lines.back() << "\n";
        }
      } else if (!out.completed) {
        ++report.incomplete_runs;
        report.repro_lines.push_back(repro_line(seed, scheme, opts.traffic));
        if (opts.log != nullptr) {
          *opts.log << "FAIL seed " << seed << " scheme "
                    << to_string(scheme) << ": did not drain within "
                    << opts.max_cycles << " cycles\n  repro: "
                    << report.repro_lines.back() << "\n";
        }
      } else if (opts.log != nullptr) {
        *opts.log << "ok   seed " << seed << " scheme " << to_string(scheme)
                  << ": " << out.total_committed << " commits in "
                  << out.cycles << " cycles\n";
      }

      if (scheme == Scheme::kBaseline) {
        report.baseline_falsely_aborted += out.falsely_aborted;
        baseline_out = std::move(out);
        have_baseline = true;
      } else {
        if (scheme == Scheme::kPuno) {
          report.puno_falsely_aborted += out.falsely_aborted;
        }
        others.emplace_back(scheme, std::move(out));
      }
    }

    // Differential oracle: contention management must not change *what*
    // commits, only when — every scheme that drains the workload must show
    // baseline's per-node commit counts.
    if (opts.differential && have_baseline && baseline_out.completed) {
      for (const auto& [scheme, out] : others) {
        if (!out.completed || out.commits == baseline_out.commits) continue;
        ++report.differential_failures;
        report.repro_lines.push_back(repro_line(seed, scheme, opts.traffic));
        if (opts.log != nullptr) {
          *opts.log << "FAIL seed " << seed << ": baseline and "
                    << to_string(scheme)
                    << " committed different per-node counts\n  repro: "
                    << report.repro_lines.back() << "\n";
        }
      }
    }
  }
  return report;
}

}  // namespace puno::check

#include "jobs.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "arch/cmp.hpp"
#include "metrics/stats_io.hpp"
#include "traffic/engine.hpp"
#include "traffic/registry.hpp"
#include "workloads/stamp.hpp"

namespace punobench {

namespace {

using puno::Scheme;

/// The paper's four mechanisms (Section IV.A).
constexpr Scheme kPaperSchemes[] = {Scheme::kBaseline, Scheme::kRandomBackoff,
                                    Scheme::kRmwPred, Scheme::kPuno};
constexpr Scheme kBaselineVsPuno[] = {Scheme::kBaseline, Scheme::kPuno};

/// Generous drain budget; every benchmark job finishes in under 1.2M cycles.
constexpr puno::Cycle kMaxCycles = 30'000'000;

void add_jobs(BenchWorkload& bw, const puno::SystemConfig& base,
              const std::vector<std::string>& names,
              const std::vector<Scheme>& schemes, double scale) {
  for (const std::string& name : names) {
    for (const Scheme s : schemes) {
      JobSpec job{name, base, scale};
      job.cfg.scheme = s;
      bw.jobs.push_back(std::move(job));
    }
  }
}

/// The paper's 4x4 CMP (Table II), all 8 STAMP profiles x 4 schemes.
void stamp16(BenchWorkload& bw, const puno::SystemConfig& base,
             double length) {
  add_jobs(bw, base, puno::workloads::stamp::benchmark_names(),
           {std::begin(kPaperSchemes), std::end(kPaperSchemes)}, length);
}

/// A 16x16 CMP keeping Table II's per-directory structures (16-entry
/// P-Buffer), so PUNO's buffer thrashes; genome + ssca2, baseline vs PUNO.
/// genome runs at twice ssca2's scale: at 0.125 its few hundred false aborts
/// per job made false_abort_frac swing ~20% from seed to seed.
void mesh256(BenchWorkload& bw, puno::SystemConfig base, double length) {
  base.num_nodes = 256;
  base.noc.mesh_width = 16;
  base.noc.mesh_height = 16;
  base.puno.pbuffer_entries = 16;
  const std::vector<Scheme> schemes{std::begin(kBaselineVsPuno),
                                    std::end(kBaselineVsPuno)};
  add_jobs(bw, base, {"genome"}, schemes, 0.25 * length);
  add_jobs(bw, base, {"ssca2"}, schemes, 0.125 * length);
}

/// 16 tiles, open loop: Poisson arrivals over a Zipf(0.99) keyspace into
/// 32-deep per-core queues. The map kernel runs just under its knee; the
/// counter kernel runs at twice its knee, saturated and shedding over half
/// its arrivals. (Right at the knee its shed share swings 10-25% from seed
/// to seed; saturated it holds within a few percent.)
void openloop16(BenchWorkload& bw, puno::SystemConfig base, double length) {
  base.traffic.arrival = puno::ArrivalKind::kPoisson;
  base.traffic.zipf_theta = 0.99;
  base.traffic.hot_keys = 0;
  base.traffic.queue_capacity = 32;
  const std::vector<Scheme> schemes{std::begin(kBaselineVsPuno),
                                    std::end(kBaselineVsPuno)};
  puno::SystemConfig map = base;
  map.traffic.rate_per_kcycle = 3;
  add_jobs(bw, map, {"traffic-map"}, schemes, 4.0 * length);
  puno::SystemConfig counter = base;
  counter.traffic.rate_per_kcycle = 4;
  add_jobs(bw, counter, {"traffic-counter"}, schemes, 8.0 * length);
}

[[nodiscard]] std::uint64_t counter_of(const puno::sim::StatsRegistry& stats,
                                       const char* name) {
  const auto it = stats.counters().find(name);
  return it == stats.counters().end() ? 0 : it->second.value();
}

/// The job's completion condition; "" when it holds.
[[nodiscard]] std::string check(const JobSpec& spec,
                                const puno::metrics::RunResult& r,
                                const puno::sim::StatsRegistry& stats,
                                std::int64_t quota_skew) {
  if (!r.completed) return "did not drain within max_cycles";
  const auto nodes = static_cast<std::int64_t>(spec.cfg.num_nodes);
  const auto commits = static_cast<std::int64_t>(r.commits);
  if (!puno::traffic::registry::is_traffic(spec.workload)) {
    const auto per_node = static_cast<std::int64_t>(
        puno::workloads::stamp::make_spec(spec.workload, spec.scale)
            .txns_per_node);
    const std::int64_t quota = per_node * nodes + quota_skew;
    if (commits != quota) {
      return "htm.commits " + std::to_string(commits) + " != quota " +
             std::to_string(quota);
    }
    return "";
  }
  const auto offered =
      static_cast<std::int64_t>(counter_of(stats, "traffic.offered"));
  const auto admitted =
      static_cast<std::int64_t>(counter_of(stats, "traffic.admitted"));
  const auto dropped =
      static_cast<std::int64_t>(counter_of(stats, "traffic.dropped"));
  const auto begun =
      static_cast<std::int64_t>(counter_of(stats, "traffic.begun"));
  const std::int64_t quota =
      std::max<std::int64_t>(
          1, std::llround(spec.cfg.traffic.arrivals_per_node * spec.scale)) *
          nodes +
      quota_skew;
  if (offered != quota) {
    return "traffic.offered " + std::to_string(offered) + " != quota " +
           std::to_string(quota);
  }
  if (offered != admitted + dropped) {
    return "traffic.offered " + std::to_string(offered) +
           " != admitted + dropped " + std::to_string(admitted + dropped);
  }
  if (begun != admitted || admitted != commits) {
    return "traffic.begun " + std::to_string(begun) + ", admitted " +
           std::to_string(admitted) + ", htm.commits " +
           std::to_string(commits) + " differ";
  }
  return "";
}

}  // namespace

const std::vector<std::string>& bench_workload_names() {
  static const std::vector<std::string> names{"stamp16", "mesh256",
                                              "openloop16"};
  return names;
}

std::optional<BenchWorkload> make_bench_workload(const std::string& name,
                                                 std::uint64_t seed,
                                                 double length) {
  BenchWorkload bw;
  bw.name = name;
  puno::SystemConfig base;
  base.seed = seed;
  if (name == "stamp16") {
    stamp16(bw, base, length);
  } else if (name == "mesh256") {
    mesh256(bw, base, length);
  } else if (name == "openloop16") {
    openloop16(bw, base, length);
  } else {
    return std::nullopt;
  }
  return bw;
}

JobTimes time_setup(const JobSpec& spec) {
  const double c0 = host_cpu_s();
  const double t0 = host_now_s();
  const std::unique_ptr<puno::workloads::Workload> workload =
      puno::traffic::registry::make(spec.workload, spec.cfg, spec.scale);
  const double t1 = host_now_s();
  puno::arch::Cmp cmp(spec.cfg, *workload);
  if (auto* open =
          dynamic_cast<puno::traffic::OpenLoopWorkload*>(workload.get())) {
    open->attach(cmp.kernel());
  }
  JobTimes t;
  t.make_s = t1 - t0;
  t.build_s = host_now_s() - t1;
  t.cpu_setup_s = host_cpu_s() - c0;
  return t;
}

JobOutcome run_job(const JobSpec& spec, const JobTrace& trace,
                   std::int64_t quota_skew) {
  JobOutcome out;
  const double c0 = host_cpu_s();
  const double t0 = host_now_s();
  const std::unique_ptr<puno::workloads::Workload> workload =
      puno::traffic::registry::make(spec.workload, spec.cfg, spec.scale);
  const double t1 = host_now_s();
  double t2 = 0.0;
  double t3 = 0.0;
  double t4 = 0.0;
  double c2 = 0.0;
  double c3 = 0.0;
  {
    puno::arch::Cmp cmp(spec.cfg, *workload);
    puno::sim::Kernel& kernel = cmp.kernel();
    if (auto* open =
            dynamic_cast<puno::traffic::OpenLoopWorkload*>(workload.get())) {
      open->attach(kernel);
    }
    if (trace.profiler != nullptr) kernel.set_profiler(trace.profiler);
    c2 = host_cpu_s();
    t2 = host_now_s();

    const bool completed = cmp.run(kMaxCycles);
    t3 = host_now_s();
    c3 = host_cpu_s();
    if (trace.profiler != nullptr) {
      kernel.set_profiler(nullptr);
      out.phases = trace.profiler->take();
    }

    out.result = puno::metrics::RunResult::from_stats(kernel.stats());
    out.result.workload = spec.workload;
    out.result.scheme = spec.cfg.scheme;
    out.result.completed = completed;
    out.result.cycles = kernel.now();
    out.counts.add(kernel.stats());
    std::ostringstream digest;
    puno::metrics::write_result_jsonl(out.result, digest);
    puno::metrics::write_stats_csv(kernel.stats(), digest);
    out.digest = digest.str();
    out.failure = check(spec, out.result, kernel.stats(), quota_skew);
    t4 = host_now_s();
  }
  const double t5 = host_now_s();
  const double c5 = host_cpu_s();
  out.times = {t1 - t0, t2 - t1, t3 - t2, t4 - t3,
               t5 - t0, c2 - c0, c3 - c2, c5 - c0};

  if (trace.spans != nullptr) {
    SpanLog& log = *trace.spans;
    const std::string label =
        spec.workload + "/" + puno::to_string(spec.cfg.scheme);
    const std::int64_t root = log.add({trace.job_id, label, t0, t5, -1});
    log.add({trace.job_id, "make", t0, t1, root});
    log.add({trace.job_id, "build", t1, t2, root});
    const std::int64_t sim = log.add({trace.job_id, "simulate", t2, t3, root});
    log.add({trace.job_id, "extract", t3, t4, root});
    log.attach_phases(sim, out.phases);
  }
  return out;
}

}  // namespace punobench

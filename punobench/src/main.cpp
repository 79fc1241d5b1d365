// punobench: the repository benchmark program (README.md in this directory).
//
//   punobench --workload stamp16|mesh256|openloop16 [--seed N] [--seconds S]
//             [--trace 0|1] [--length X] [--spans FILE] [--quota-skew K]
//
// Runs whole passes over the workload's jobs for about --seconds of host
// time (at least two passes). --trace 0 runs untraced passes, each after
// set-up-only repetitions, and reports the end-to-end metrics, host times as
// CPU time scaled to a nominal host by a reference run around every job
// (host_speed.hpp); --trace 1 alternates untraced and traced passes and
// reports the per-layer metrics, host times from the traced passes. Every
// pass must reproduce the first pass's simulated-statistics digest exactly,
// and every job must meet its completion condition (jobs.hpp).
//
// Output: a human-readable report, then as the last line one JSON object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// where attempted/failed count job runs. Exit 0 when every check passed, 1
// when any failed, 2 on bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "host_speed.hpp"
#include "jobs.hpp"
#include "layers.hpp"
#include "profiler.hpp"
#include "sim/profile.hpp"

namespace {

using punobench::BenchWorkload;
using punobench::JobOutcome;
using punobench::JobPhases;
using punobench::JobTimes;
using punobench::Metric;
using punobench::ratio;

/// Set-up-only repetitions of every job before each untraced pass, behind
/// setup_s.
constexpr std::size_t kSetupRepsPerPass = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double length = 1.0;
  std::string spans_path;
  std::int64_t quota_skew = 0;
};

/// One pass: every job of the workload, in order.
struct Pass {
  bool traced = false;
  double run_s = 0.0;  ///< Host wall time of the jobs, references excluded.
  std::vector<JobOutcome> jobs;

  [[nodiscard]] double sum(double JobTimes::*field) const {
    double s = 0.0;
    for (const JobOutcome& j : jobs) s += j.times.*field;
    return s;
  }
  [[nodiscard]] std::uint64_t cycles() const {
    std::uint64_t c = 0;
    for (const JobOutcome& j : jobs) c += j.result.cycles;
    return c;
  }
};

void usage() {
  std::fprintf(stderr,
               "usage: punobench --workload stamp16|mesh256|openloop16 "
               "[--seed N] [--seconds S] [--trace 0|1] [--length X] "
               "[--spans FILE] [--quota-skew K]\n");
}

[[nodiscard]] bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v, &end);
    } else if (arg == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      if (!o.trace && std::strcmp(v, "0") != 0) return false;
    } else if (arg == "--length") {
      o.length = std::strtod(v, &end);
      if (!(o.length > 0.0)) return false;
    } else if (arg == "--spans") {
      o.spans_path = v;
    } else if (arg == "--quota-skew") {
      o.quota_skew = std::strtoll(v, &end, 10);
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !o.workload.empty();
}

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[nodiscard]] std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

[[nodiscard]] const char* scheme_alias(puno::Scheme s) {
  switch (s) {
#define PUNOBENCH_ALIAS(name, canonical, alias) \
  case puno::Scheme::name:                      \
    return alias;
    PUNO_SCHEME_LIST(PUNOBENCH_ALIAS)
#undef PUNOBENCH_ALIAS
  }
  return "?";
}

/// Set-up only (time_setup) of every job, between two reference runs.
Pass run_setup_pass(const BenchWorkload& bw) {
  Pass p;
  const double ref_before = punobench::time_reference();
  for (const punobench::JobSpec& spec : bw.jobs) {
    p.jobs.emplace_back().times = punobench::time_setup(spec);
  }
  const double ref_s = 0.5 * (ref_before + punobench::time_reference());
  for (JobOutcome& j : p.jobs) j.times.ref_s = ref_s;
  return p;
}

/// Every job once, with a reference run before the first job and after
/// each one, so that each run between two jobs serves both.
Pass run_pass(const BenchWorkload& bw, bool traced,
              punobench::PhaseProfiler& profiler, punobench::SpanLog& spans,
              std::uint64_t& next_job_id, std::int64_t quota_skew) {
  Pass p;
  p.traced = traced;
  double ref_before = punobench::time_reference();
  for (const punobench::JobSpec& spec : bw.jobs) {
    punobench::JobTrace tr;
    if (traced) tr = {&profiler, &spans, next_job_id++};
    JobOutcome job = punobench::run_job(spec, tr, quota_skew);
    const double ref_after = punobench::time_reference();
    job.times.ref_s = 0.5 * (ref_before + ref_after);
    ref_before = ref_after;
    p.run_s += job.times.total_s;
    p.jobs.push_back(std::move(job));
  }
  return p;
}

/// Marks every job of pass `index` whose simulated digest differs from the
/// reference pass's, then drops the pass's digests and counts (identical to
/// the reference's when they match), so memory does not grow with passes.
void check_against(const Pass& ref, std::size_t index, Pass& pass) {
  for (std::size_t j = 0; j < pass.jobs.size(); ++j) {
    JobOutcome& job = pass.jobs[j];
    if (job.failure.empty() && job.digest != ref.jobs[j].digest) {
      job.failure = std::string("simulated digest differs from pass 0 (") +
                    (pass.traced ? "traced" : "untraced") + " pass " +
                    std::to_string(index) + ")";
    }
    job.digest = std::string();
    job.counts = punobench::Counts{};
  }
}

[[nodiscard]] punobench::Counts merged_counts(const Pass& p, bool puno_only) {
  punobench::Counts c;
  for (const JobOutcome& j : p.jobs) {
    if (!puno_only || j.result.scheme == puno::Scheme::kPuno) {
      c.merge(j.counts);
    }
  }
  return c;
}

/// Sum over jobs of each job's median `field` across `passes`. A burst of
/// host interference inflates one job in one pass, which the per-job median
/// drops; a pass-level median would keep it whenever passes are few. With
/// `nominal`, each sample is first scaled to the nominal host by the
/// reference runs around it (host_speed.hpp), which takes out the
/// host's slower drift, over seconds to minutes, that a median cannot.
[[nodiscard]] double sum_of_job_medians(const std::vector<const Pass*>& passes,
                                        double JobTimes::*field,
                                        bool nominal = false) {
  double total = 0.0;
  for (std::size_t j = 0; j < passes.front()->jobs.size(); ++j) {
    std::vector<double> v;
    for (const Pass* p : passes) {
      const JobTimes& t = p->jobs[j].times;
      v.push_back(nominal ? t.*field * punobench::kReferenceNominalS / t.ref_s
                          : t.*field);
    }
    total += median(v);
  }
  return total;
}

[[nodiscard]] double median_reference_s(const std::vector<const Pass*>& passes) {
  std::vector<double> v;
  for (const Pass* p : passes) {
    for (const JobOutcome& j : p->jobs) v.push_back(j.times.ref_s);
  }
  return median(v);
}

/// Peak resident set so far, KiB.
[[nodiscard]] double peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

/// End-to-end host metrics over the untraced passes; setup_s comes from
/// the set-up-only repetitions. The listed metrics are process CPU time
/// scaled to the nominal host; the `cpu_` and `wall_` twins printed beside
/// them are the unscaled CPU and wall times.
[[nodiscard]] std::vector<Metric> host_end_to_end(
    const std::vector<const Pass*>& untraced,
    const std::vector<const Pass*>& setups, double first_round_rss_kib) {
  const double cycles = static_cast<double>(untraced.front()->cycles());
  const double sim_s =
      sum_of_job_medians(untraced, &JobTimes::cpu_simulate_s, true);
  const double cpu_sim_s =
      sum_of_job_medians(untraced, &JobTimes::cpu_simulate_s);
  const double wall_sim_s =
      sum_of_job_medians(untraced, &JobTimes::simulate_s);
  const std::string n = std::to_string(untraced.size());
  const std::string per_job =
      ", sum of per-job medians over " + n + " untraced passes";
  const std::string per_setup = ", sum of per-job medians over " +
                                std::to_string(setups.size()) + " set-ups";
  return {
      {"sim_cycles_per_s", ratio(cycles, sim_s), "cycles/s",
       "sim cycles " + fmt("%.0f", cycles) + " / nominal s in Cmp::run " +
           fmt("%.6g", sim_s) + per_job},
      {"run_s", sum_of_job_medians(untraced, &JobTimes::cpu_total_s, true),
       "s",
       "nominal s of one pass: make + build + simulate + extract + "
       "teardown" + per_job},
      {"setup_s", sum_of_job_medians(setups, &JobTimes::cpu_setup_s, true),
       "s", "nominal s in registry::make + arch::Cmp construction" + per_setup},
      {"peak_rss_mb", first_round_rss_kib / 1024.0, "MiB",
       "getrusage ru_maxrss after the first round (set-ups + one pass)"},
      {"host.reference_ms", median_reference_s(untraced) * 1e3, "ms",
       "median CPU ms of the host-speed reference around each job; nominal " +
           fmt("%.4g", punobench::kReferenceNominalS * 1e3)},
      {"cpu_sim_cycles_per_s", ratio(cycles, cpu_sim_s), "cycles/s",
       "as sim_cycles_per_s, unscaled CPU s " + fmt("%.6g", cpu_sim_s)},
      {"cpu_run_s", sum_of_job_medians(untraced, &JobTimes::cpu_total_s), "s",
       "as run_s, unscaled CPU time"},
      {"cpu_setup_s", sum_of_job_medians(setups, &JobTimes::cpu_setup_s), "s",
       "as setup_s, unscaled CPU time"},
      {"wall_sim_cycles_per_s", ratio(cycles, wall_sim_s), "cycles/s",
       "as sim_cycles_per_s, wall s " + fmt("%.6g", wall_sim_s)},
      {"wall_run_s", sum_of_job_medians(untraced, &JobTimes::total_s), "s",
       "as run_s, wall time"},
      {"wall_setup_s",
       sum_of_job_medians(setups, &JobTimes::make_s) +
           sum_of_job_medians(setups, &JobTimes::build_s),
       "s", "as setup_s, wall time"},
  };
}

/// Per-layer host metrics of one traced pass; `traversals` is the
/// workload's noc.router_traversals (the same in every pass).
[[nodiscard]] std::vector<Metric> host_layers(const Pass& p, double tps,
                                              double traversals) {
  JobPhases all;
  std::vector<std::pair<puno::Scheme, JobPhases>> by_scheme;
  for (const JobOutcome& j : p.jobs) {
    all.merge(j.phases);
    auto it = std::find_if(by_scheme.begin(), by_scheme.end(),
                           [&j](const auto& e) {
                             return e.first == j.result.scheme;
                           });
    if (it == by_scheme.end()) {
      by_scheme.emplace_back(j.result.scheme, JobPhases{});
      it = by_scheme.end() - 1;
    }
    it->second.merge(j.phases);
  }
  const double cycles = static_cast<double>(p.cycles());
  const double events = static_cast<double>(all.events);
  const double drain_s = static_cast<double>(all.drain.ticks) / tps;
  const double noc_s = static_cast<double>(all.tickable_ticks("noc.")) / tps;
  const double phases_s = static_cast<double>(all.total_ticks()) / tps;
  const double probe_s = static_cast<double>(all.probe_calls()) *
                         punobench::PhaseProfiler::probe_gap_ticks() / tps;
  const double sim_s = p.sum(&JobTimes::simulate_s);
  const double children = p.sum(&JobTimes::make_s) +
                          p.sum(&JobTimes::build_s) + sim_s +
                          p.sum(&JobTimes::extract_s);

  std::vector<Metric> out = {
      {"workloads.make_s", p.sum(&JobTimes::make_s), "s",
       "traffic::registry::make"},
      {"arch.build_s", p.sum(&JobTimes::build_s), "s",
       "arch::Cmp construction"},
      {"sim.events", events, "count", "event handlers run"},
      {"sim.events_per_cycle", ratio(events, cycles), "events/cycle",
       "sim.events " + fmt("%.0f", events) + " / sim cycles " +
           fmt("%.0f", cycles)},
      {"sim.event_drain_s", drain_s, "s", "kernel event-drain phase"},
      {"sim.ns_per_event", ratio(drain_s * 1e9, events), "ns",
       "sim.event_drain_s / sim.events " + fmt("%.0f", events)},
  };
  for (const auto& [scheme, ph] : by_scheme) {
    const double ev = static_cast<double>(ph.events);
    out.push_back({std::string("sim.ns_per_event.") + scheme_alias(scheme),
                   ratio(static_cast<double>(ph.drain.ticks) / tps * 1e9, ev),
                   "ns", "drain / events " + fmt("%.0f", ev)});
  }
  const std::vector<Metric> rest = {
      {"sim.hook_s", static_cast<double>(all.hook_ticks()) / tps, "s",
       "post-cycle hooks"},
      {"noc.tick_s", noc_s, "s",
       "Mesh::tick, packet delivery into L1/directory handlers included"},
      {"noc.ns_per_cycle", ratio(noc_s * 1e9, cycles), "ns",
       "noc.tick_s / sim cycles " + fmt("%.0f", cycles)},
      {"noc.ns_per_traversal", ratio(noc_s * 1e9, traversals), "ns",
       "noc.tick_s / noc.router_traversals " + fmt("%.0f", traversals)},
      {"metrics.extract_s", p.sum(&JobTimes::extract_s), "s",
       "RunResult::from_stats + count extraction + digest"},
      {"bench.trace_coverage", ratio(phases_s + probe_s, sim_s), "fraction",
       "(phase host s " + fmt("%.6g", phases_s) + " + probe s " +
           fmt("%.6g", probe_s) + ") / host s in Cmp::run " +
           fmt("%.6g", sim_s)},
      {"bench.trace_probe_s", probe_s, "s",
       fmt("%.0f", static_cast<double>(all.probe_calls())) +
           " probes x calibrated gap " +
           fmt("%.4g", punobench::PhaseProfiler::probe_gap_ticks() / tps *
                           1e9) +
           " ns"},
      {"bench.simulate_self_s", sim_s - phases_s - probe_s, "s",
       "Cmp::run minus its per-cycle phases and probes (run-loop polling)"},
      {"bench.job_self_s", p.sum(&JobTimes::total_s) - children, "s",
       "job minus make/build/simulate/extract (Cmp teardown)"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

/// Element-wise median of same-shaped metric lists.
[[nodiscard]] std::vector<Metric> median_of(
    const std::vector<std::vector<Metric>>& runs) {
  std::vector<Metric> out = runs.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> v;
    for (const auto& r : runs) v.push_back(r[i].value);
    out[i].value = median(v);
  }
  return out;
}

[[nodiscard]] std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void print_metric(const Metric& m) {
  std::printf("  %-34s %-16.10g %-14s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.base.c_str());
}

void print_row(const std::string& label, const punobench::Counts& all,
               const punobench::Counts& puno, std::uint64_t cycles) {
  std::printf("row %s", label.c_str());
  for (const Metric& m : punobench::design_metrics(all, cycles)) {
    std::printf(" %s=%.6g", m.name.c_str(), m.value);
  }
  for (const Metric& m : punobench::layer_count_metrics(all, puno)) {
    std::printf(" %s=%.6g", m.name.c_str(), m.value);
  }
  std::printf("\n");
}

/// Per-job host phases of one traced pass.
void print_host_rows(const Pass& p, double tps) {
  std::printf("rows: host time per job (first traced pass)\n");
  for (const JobOutcome& j : p.jobs) {
    const double drain = static_cast<double>(j.phases.drain.ticks) / tps;
    const double mesh_p99 =
        j.phases.tickables.empty()
            ? 0.0
            : static_cast<double>(
                  j.phases.tickables.front().second.quantile_upper_ticks(
                      0.99)) /
                  tps * 1e9;
    std::printf(
        "host %s/%s simulate_s=%.6g noc.tick_s=%.6g sim.event_drain_s=%.6g "
        "sim.events=%llu ns_per_event=%.4g mesh_tick_p99_ns<=%.4g\n",
        j.result.workload.c_str(), puno::to_string(j.result.scheme),
        j.times.simulate_s,
        static_cast<double>(j.phases.tickable_ticks("noc.")) / tps, drain,
        static_cast<unsigned long long>(j.phases.events),
        ratio(drain * 1e9, static_cast<double>(j.phases.events)), mesh_p99);
  }
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Options& opt) {
  const auto bw =
      punobench::make_bench_workload(opt.workload, opt.seed, opt.length);
  if (!bw) {
    std::fprintf(stderr, "punobench: unknown workload '%s'\n",
                 opt.workload.c_str());
    usage();
    return 2;
  }
  const double tps = puno::sim::host_ticks_per_second();
  punobench::PhaseProfiler profiler;
  punobench::SpanLog spans;
  std::uint64_t next_job_id = 0;

  // Whole rounds until the next one would overrun the window; --trace 1
  // alternates untraced/traced passes so both see the same machine
  // conditions. An untraced round starts with set-up-only repetitions:
  // setup_s is small enough that one sample per pass would leave it at the
  // mercy of a single page-fault burst, and spreading them over the run
  // keeps them from all landing in one stretch of host slowness.
  const double start = punobench::host_now_s();
  std::vector<Pass> setups;
  std::vector<Pass> passes;
  double first_round_rss_kib = 0.0;
  const std::size_t per_round = opt.trace ? 2 : 1;
  const std::size_t min_passes = 2;
  for (;;) {
    const double round_start = punobench::host_now_s();
    for (std::size_t k = 0; !opt.trace && k < kSetupRepsPerPass; ++k) {
      setups.push_back(run_setup_pass(*bw));
    }
    for (std::size_t k = 0; k < per_round; ++k) {
      passes.push_back(run_pass(*bw, opt.trace && k == 1, profiler, spans,
                                next_job_id, opt.quota_skew));
      if (passes.size() > 1) check_against(passes.front(), passes.size() - 1,
                                           passes.back());
    }
    // The heap keeps growing slowly over later passes, which repeat the
    // first one's work, so the peak is read once the first round is done
    // and does not depend on how many passes the host's speed allows.
    if (first_round_rss_kib == 0.0) first_round_rss_kib = peak_rss_kib();
    const double now = punobench::host_now_s();
    if (passes.size() >= min_passes &&
        (now - start) + (now - round_start) > opt.seconds) {
      break;
    }
  }

  // Correctness: completion conditions (checked per job) and digests
  // byte-identical to the first pass's (checked as each pass ends).
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const Pass& ref = passes.front();
  for (std::size_t p = 0; p < passes.size(); ++p) {
    for (std::size_t j = 0; j < passes[p].jobs.size(); ++j) {
      const JobOutcome& job = passes[p].jobs[j];
      ++attempted;
      if (!job.failure.empty()) {
        ++failed;
        std::printf("FAIL pass %zu job %s/%s: %s\n", p,
                    job.result.workload.c_str(),
                    puno::to_string(job.result.scheme),
                    job.failure.c_str());
      }
    }
  }
  std::uint64_t digest = 1469598103934665603ull;
  for (const JobOutcome& j : ref.jobs) digest = fnv1a(j.digest, digest);

  std::vector<const Pass*> untraced;
  std::vector<const Pass*> traced;
  for (const Pass& p : passes) (p.traced ? traced : untraced).push_back(&p);

  std::printf("punobench workload=%s seed=%llu trace=%d jobs=%zu passes=%zu "
              "(untraced %zu, traced %zu) window=%.3gs host_ticks/s=%.6g\n",
              bw->name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, bw->jobs.size(), passes.size(),
              untraced.size(), traced.size(), opt.seconds, tps);

  // Per (workload, scheme) rows and the workload total, simulated.
  std::printf("rows: simulated statistics per (workload, scheme), identical "
              "in every pass\n");
  for (const JobOutcome& j : ref.jobs) {
    punobench::Counts none;
    print_row(j.result.workload + "/" + puno::to_string(j.result.scheme),
              j.counts,
              j.result.scheme == puno::Scheme::kPuno ? j.counts : none,
              j.result.cycles);
  }
  const punobench::Counts all = merged_counts(ref, false);
  const punobench::Counts puno_jobs = merged_counts(ref, true);
  print_row("total", all, puno_jobs, ref.cycles());

  const double fail_frac = ratio(static_cast<double>(failed),
                                 static_cast<double>(attempted));
  std::vector<Metric> reported;
  if (!opt.trace) {
    std::vector<const Pass*> setup_ptrs;
    for (const Pass& p : setups) setup_ptrs.push_back(&p);
    reported = host_end_to_end(untraced, setup_ptrs, first_round_rss_kib);
    for (Metric& m : punobench::design_metrics(all, ref.cycles())) {
      reported.push_back(std::move(m));
    }
    for (Metric& m : punobench::traffic_outcome_metrics(all)) {
      reported.push_back(std::move(m));
    }
    reported.push_back({"fail_frac", fail_frac, "fraction",
                        std::to_string(failed) + " failed / " +
                            std::to_string(attempted) + " job runs"});
    std::printf("end-to-end metrics (host: untraced passes; simulated: "
                "deterministic, unvalidated model):\n");
  } else {
    print_host_rows(*traced.front(), tps);
    std::vector<std::vector<Metric>> per_pass;
    const double traversals =
        static_cast<double>(all.counter("noc.router_traversals"));
    for (const Pass* p : traced) {
      per_pass.push_back(host_layers(*p, tps, traversals));
    }
    reported = median_of(per_pass);
    std::vector<double> t_run;
    std::vector<double> u_run;
    for (const Pass* p : traced) t_run.push_back(p->run_s);
    for (const Pass* p : untraced) u_run.push_back(p->run_s);
    reported.push_back(
        {"bench.trace_overhead_frac", median(t_run) / median(u_run) - 1.0,
         "fraction",
         "traced run_s " + fmt("%.6g", median(t_run)) + " / untraced run_s " +
             fmt("%.6g", median(u_run)) + " - 1"});
    for (Metric& m : punobench::layer_count_metrics(all, puno_jobs)) {
      reported.push_back(std::move(m));
    }
    std::printf("per-layer metrics (host: median of %zu traced passes; "
                "counts: simulated):\n",
                traced.size());
    if (!opt.spans_path.empty()) {
      std::ofstream out(opt.spans_path, std::ios::trunc);
      spans.write_chrome_json(out, tps);
      if (!out) {
        std::fprintf(stderr, "punobench: cannot write %s\n",
                     opt.spans_path.c_str());
        return 1;
      }
      std::printf("spans: %zu written to %s\n", spans.spans().size(),
                  opt.spans_path.c_str());
    }
  }
  for (const Metric& m : reported) print_metric(m);
  std::printf("pass wall s:");
  for (const Pass& p : passes) {
    std::printf(" %.4g%s", p.run_s, p.traced ? "(traced)" : "");
  }
  std::printf("\ncorrectness: %zu job runs, %zu failed (fail_frac %.6g); "
              "digest %016llx over %zu passes\n",
              attempted, failed, fail_frac,
              static_cast<unsigned long long>(digest), passes.size());
  print_json(failed == 0, attempted, failed, reported);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "punobench: %s\n", e.what());
    return 1;
  }
}

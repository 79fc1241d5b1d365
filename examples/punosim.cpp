// punosim: command-line driver for single experiments.
//
//   ./punosim --workload intruder --scheme puno --seed 7 --scale 0.5
//             [--set KEY=VALUE] [--replay FILE] [--record-trace FILE]
//             [--csv FILE] [--stats]
//             [--trace[=FILTER]] [--trace-out FILE] [--abort-report[=FILE]]
//             [--verify-trace]
//
// Prints the headline metrics; --stats additionally dumps every counter,
// scalar and histogram the simulation recorded (the same registry the
// figures are built from). --replay replays a recorded workload stream
// instead of the synthetic generator; --record-trace writes the generated
// stream to a file (without simulating); --csv appends a result row (with
// header if new). --trace records the transaction-lifecycle event trace
// (docs/TRACING.md) and writes Perfetto-loadable Chrome trace JSON;
// --abort-report classifies every abort as false/necessary; --verify-trace
// re-parses the written JSON and cross-checks the attribution counts
// against the simulator's false-abort counters.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <vector>

#include "trace/abort_attribution.hpp"
#include "trace/chrome_export.hpp"
#include "trace/recorder.hpp"

#include "arch/cmp.hpp"
#include "metrics/experiment.hpp"
#include "metrics/stats_io.hpp"
#include "runner/grid.hpp"
#include "telemetry/export.hpp"
#include "telemetry/host_profiler.hpp"
#include "telemetry/sampler.hpp"
#include "traffic/registry.hpp"
#include "workloads/trace.hpp"

namespace {

void usage(const char* argv0) {
  // Derive the machine-shape line from the real defaults so the help text
  // can never go stale when the configuration changes.
  const puno::SystemConfig defaults{};
  std::printf(
      "usage: %s [options]\n"
      "simulates a %ux%u mesh of %u tiles by default; resize with\n"
      "  --set num_nodes=N (or noc.mesh_width/noc.mesh_height), up to %u\n"
      "  --workload NAME   a registered workload: a STAMP profile or an\n"
      "                    open-loop traffic kernel (--list-workloads;\n"
      "                    default: intruder)\n"
      "  --list-workloads  print every registered workload and exit\n"
      "  --scheme NAME     baseline|backoff|rmw|puno|reqwins|limited\n"
      "                    (default: baseline)\n"
      "  --seed N          RNG seed (default: 1)\n"
      "  --scale X         committed-txn quota multiplier (default: 1.0)\n"
      "  --set KEY=VALUE   override a config knob (same keys as punobatch\n"
      "                    --list-keys; e.g. traffic.zipf_theta=1.2,\n"
      "                    puno.enable_unicast=0, puno.enable_commit_hint=1)\n"
      "  --replay FILE     replay a recorded trace; it is checked before\n"
      "                    the run and read from one open file in\n"
      "                    constant memory\n"
      "  --record-trace F  write the generated stream to F and exit\n"
      "  --csv FILE        append the result as a CSV row\n"
      "  --stats           dump the full statistics registry\n"
      "  --trace[=FILTER]  record the event trace; FILTER is a comma list\n"
      "                    of txn,conflict,dir,noc,puno (default: all)\n"
      "  --trace-out FILE  Chrome trace JSON path (default:\n"
      "                    <workload>-<scheme>-s<seed>.trace.json)\n"
      "  --trace-capacity N  ring-buffer capacity in events (default 256Ki)\n"
      "  --abort-report[=FILE]  write the abort-attribution report\n"
      "                    (default FILE: <trace-out>.aborts.txt)\n"
      "  --verify-trace    re-parse the JSON and cross-check false-abort\n"
      "                    counts against the stats counters; exit 1 on\n"
      "                    mismatch\n"
      "  --telemetry[=N]   sample live gauges every N cycles (default 1000)\n"
      "                    into a windowed series (docs/TELEMETRY.md)\n"
      "  --telemetry-out F series JSONL path (default:\n"
      "                    <workload>-<scheme>-s<seed>.telemetry.jsonl)\n"
      "  --telemetry-csv F also write the series as CSV\n"
      "  --telemetry-spatial  also sample the per-tile channels (aborts,\n"
      "                    NACKs, P-Buffer evictions, UD mispredicts, txn\n"
      "                    pins, router queues) for the mesh heatmaps\n"
      "  --dashboard[=F]   write the self-contained HTML dashboard\n"
      "                    (default F: <workload>-<scheme>-s<seed>"
      ".dashboard.html)\n"
      "  --verify-telemetry  re-parse the written JSONL, check it round-trips\n"
      "                    and that windows sum to the final cycle; exit 1\n"
      "                    on mismatch\n"
      "  --profile[=F]     time every component's tick/hook in host terms;\n"
      "                    prints the breakdown, and with F also writes the\n"
      "                    JSON form\n",
      argv0, defaults.noc.mesh_width, defaults.noc.rows(),
      defaults.num_nodes, puno::kMaxNodes);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace puno;
  metrics::ExperimentParams params;
  params.workload = "intruder";
  bool dump_stats = false;
  std::string replay_path, record_path, csv_path;
  bool verify_trace = false, want_abort_report = false;
  bool verify_telemetry = false, want_dashboard = false;
  bool profile_on = false;
  std::string profile_out;

  // A numeric flag's value, read with runner's checked parsers; exits 2
  // naming the flag and the value when it is malformed.
  const auto number = [](const char* flag, const char* text, auto parse,
                         auto& out) {
    if (!parse(text, out)) {
      std::fprintf(stderr, "bad value '%s' for %s\n", text, flag);
      std::exit(2);
    }
  };
  // Every telemetry flag turns sampling on, every 1000 cycles unless
  // --telemetry=N chose the interval.
  const auto telemetry_on = [&params] {
    if (params.telemetry.interval == 0) params.telemetry.interval = 1000;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      params.workload = next();
    } else if (arg == "--list-workloads") {
      for (const auto& e : traffic::registry::entries()) {
        std::printf("%-16s %s\n", e.name.c_str(), e.description.c_str());
      }
      return 0;
    } else if (arg == "--set") {
      const std::string kv = next();
      const auto eq = kv.find('=');
      if (eq == std::string::npos ||
          !runner::apply_override(params.base_config, kv.substr(0, eq),
                                  kv.substr(eq + 1))) {
        std::fprintf(stderr, "bad --set '%s' (see punobatch --list-keys)\n",
                     kv.c_str());
        return 2;
      }
    } else if (arg == "--scheme") {
      const std::string s = next();
      if (const auto scheme = scheme_from_string(s)) {
        params.scheme = *scheme;
      } else {
        std::fprintf(stderr, "unknown scheme '%s'\n", s.c_str());
        return 2;
      }
    } else if (arg == "--seed") {
      number("--seed", next(), runner::parse_u64, params.seed);
    } else if (arg == "--scale") {
      number("--scale", next(), runner::parse_f64, params.scale);
    } else if (arg == "--replay") {
      replay_path = next();
    } else if (arg == "--trace") {
      params.trace.enabled = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      params.trace.enabled = true;
      params.trace.filter = arg.substr(std::strlen("--trace="));
    } else if (arg == "--trace-out") {
      params.trace.enabled = true;
      params.trace.path = next();
    } else if (arg == "--trace-capacity") {
      params.trace.enabled = true;
      number("--trace-capacity", next(), runner::parse_u64,
             params.trace.capacity);
    } else if (arg == "--abort-report") {
      params.trace.enabled = true;
      want_abort_report = true;
    } else if (arg.rfind("--abort-report=", 0) == 0) {
      params.trace.enabled = true;
      want_abort_report = true;
      params.trace.report_path = arg.substr(std::strlen("--abort-report="));
    } else if (arg == "--verify-trace") {
      params.trace.enabled = true;
      verify_trace = true;
    } else if (arg == "--telemetry") {
      telemetry_on();
    } else if (arg.rfind("--telemetry=", 0) == 0) {
      number("--telemetry", arg.c_str() + std::strlen("--telemetry="),
             runner::parse_u64, params.telemetry.interval);
      if (params.telemetry.interval == 0) {
        std::fprintf(stderr, "--telemetry interval must be > 0\n");
        return 2;
      }
    } else if (arg == "--telemetry-out") {
      telemetry_on();
      params.telemetry.jsonl_path = next();
    } else if (arg == "--telemetry-csv") {
      telemetry_on();
      params.telemetry.csv_path = next();
    } else if (arg == "--telemetry-spatial") {
      telemetry_on();
      params.telemetry.spatial = true;
    } else if (arg == "--dashboard") {
      telemetry_on();
      want_dashboard = true;
    } else if (arg.rfind("--dashboard=", 0) == 0) {
      telemetry_on();
      want_dashboard = true;
      params.telemetry.dashboard_path = arg.substr(std::strlen("--dashboard="));
    } else if (arg == "--verify-telemetry") {
      telemetry_on();
      verify_telemetry = true;
    } else if (arg == "--profile") {
      profile_on = true;
    } else if (arg.rfind("--profile=", 0) == 0) {
      profile_on = true;
      profile_out = arg.substr(std::strlen("--profile="));
    } else if (arg == "--record-trace") {
      record_path = next();
    } else if (arg == "--csv") {
      csv_path = next();
    } else if (arg == "--stats") {
      dump_stats = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  // Reject a bad config or trace filter before recording or building
  // anything; Cmp's own validate() stays as the backstop.
  const SystemConfig cfg = params.config();
  if (const auto err = validate(cfg)) {
    std::fprintf(stderr, "invalid config: %s\n", err->c_str());
    return 2;
  }
  if (params.trace.active() && !trace::parse_filter(params.trace.filter)) {
    std::fprintf(stderr, "unknown trace filter '%s'\n",
                 params.trace.filter.c_str());
    return 2;
  }

  const auto make_workload = [&]() -> std::unique_ptr<workloads::Workload> {
    try {
      return traffic::registry::make(params.workload, cfg, params.scale);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s%s\n", e.what(),
                   traffic::registry::known(params.workload)
                       ? ""
                       : " (--list-workloads shows the registry)");
      std::exit(2);
    }
  };

  if (!record_path.empty()) {
    // Unattached open-loop workloads run in drain mode here: every arrival
    // in order, no queueing — exactly what a portable trace should contain.
    auto source = make_workload();
    std::ofstream out(record_path);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", record_path.c_str());
      return 1;
    }
    workloads::TraceWorkload::record(*source, cfg.num_nodes, out);
    std::printf("trace written to %s\n", record_path.c_str());
    return 0;
  }

  std::unique_ptr<workloads::Workload> workload;
  try {
    if (!replay_path.empty()) {
      workload = std::make_unique<workloads::TraceWorkload>(
          workloads::TraceWorkload::open(replay_path,
                                         static_cast<NodeId>(cfg.num_nodes)));
      params.workload = workload->name() + " (replay)";
    }
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (!workload) workload = make_workload();

  // Default output names share one stem, replay suffix included.
  const std::string stem = params.workload + "-" + to_string(params.scheme) +
                           "-s" + std::to_string(params.seed);
  if (params.trace.active() && params.trace.path.empty()) {
    params.trace.path = stem + ".trace.json";
  }
  if (want_abort_report && params.trace.report_path.empty()) {
    params.trace.report_path = params.trace.path + ".aborts.txt";
  }
  if (params.telemetry.active() && params.telemetry.jsonl_path.empty()) {
    params.telemetry.jsonl_path = stem + ".telemetry.jsonl";
  }
  if (want_dashboard && params.telemetry.dashboard_path.empty()) {
    params.telemetry.dashboard_path = stem + ".dashboard.html";
  }

  metrics::Experiment exp(params, std::move(workload));
  telemetry::HostProfiler profiler;
  if (profile_on) exp.cmp().kernel().set_profiler(&profiler);

  metrics::RunResult r;
  try {
    r = exp.run();
  } catch (const std::runtime_error& e) {
    // A replayed trace was checked before the run, so this is an output
    // file that could not be written.
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  if (profile_on) exp.cmp().kernel().set_profiler(nullptr);

  std::printf("workload=%s scheme=%s seed=%llu scale=%.3g\n",
              params.workload.c_str(), to_string(params.scheme),
              static_cast<unsigned long long>(params.seed), params.scale);
  std::printf("completed            %s\n",
              r.completed ? "yes" : "NO (budget)");
  std::printf("cycles               %llu\n",
              static_cast<unsigned long long>(r.cycles));
  std::printf("commits              %llu\n",
              static_cast<unsigned long long>(r.commits));
  std::printf("aborts               %llu (%.1f%%)\n",
              static_cast<unsigned long long>(r.aborts),
              r.abort_rate() * 100.0);
  std::printf("false-abort events   %llu (%.1f%% of TxGETX)\n",
              static_cast<unsigned long long>(r.false_abort_events),
              r.false_abort_fraction() * 100.0);
  std::printf("network traffic      %llu flit router traversals\n",
              static_cast<unsigned long long>(r.router_traversals));
  std::printf("dir blocked/TxGETX   %.1f cycles\n", r.dir_blocked_mean);
  std::printf("G/D ratio            %.3f\n", r.gd_ratio());
  if (r.offered_txns > 0) {
    std::printf("offered arrivals     %llu (%llu dropped, %.1f%%)\n",
                static_cast<unsigned long long>(r.offered_txns),
                static_cast<unsigned long long>(r.dropped_txns),
                r.drop_rate() * 100.0);
    std::printf("queue delay          p50=%llu p90=%llu p99=%llu cycles\n",
                static_cast<unsigned long long>(r.queue_delay_p50),
                static_cast<unsigned long long>(r.queue_delay_p90),
                static_cast<unsigned long long>(r.queue_delay_p99));
  }
  if (params.scheme == Scheme::kPuno) {
    std::printf("unicasts             %llu (hit rate %.1f%%)\n",
                static_cast<unsigned long long>(r.unicast_forwards),
                r.prediction_hit_rate() * 100.0);
    std::printf("notified backoffs    %llu\n",
                static_cast<unsigned long long>(r.notified_backoffs));
  }

  if (const trace::TraceRecorder* recorder = exp.recorder()) {
    std::printf("trace                %llu events (%llu dropped) -> %s\n",
                static_cast<unsigned long long>(r.trace_events),
                static_cast<unsigned long long>(r.trace_dropped),
                r.trace_path.c_str());

    const auto attribution = trace::attribute_aborts(*recorder);
    std::printf(
        "abort attribution    false=%llu necessary=%llu overflow=%llu "
        "unresolved=%llu\n",
        static_cast<unsigned long long>(attribution.false_aborts),
        static_cast<unsigned long long>(attribution.necessary_aborts),
        static_cast<unsigned long long>(attribution.overflow_aborts),
        static_cast<unsigned long long>(attribution.unresolved_aborts));
    if (!params.trace.report_path.empty()) {
      std::printf("abort report         -> %s\n",
                  params.trace.report_path.c_str());
    }
    if (verify_trace) {
      std::ifstream in(r.trace_path);
      std::string err;
      const auto check = trace::validate_chrome_trace(in, &err);
      if (!check) {
        std::fprintf(stderr, "verify-trace: JSON FAILED: %s\n", err.c_str());
        return 1;
      }
      std::printf(
          "verify-trace         JSON ok: %llu events (%llu spans, %llu "
          "instants, %llu metadata)\n",
          static_cast<unsigned long long>(check->events),
          static_cast<unsigned long long>(check->complete),
          static_cast<unsigned long long>(check->instants),
          static_cast<unsigned long long>(check->metadata));
      // The counter cross-check needs the full abort/conflict event stream:
      // no ring drops and a filter covering txn+conflict.
      const std::uint32_t need = static_cast<std::uint32_t>(trace::Cat::kTxn) |
                                 static_cast<std::uint32_t>(trace::Cat::kConflict);
      const char* skip_reason =
          recorder->dropped() > 0 ? "ring dropped events"
          : (recorder->category_mask() & need) != need
              ? "filter excludes txn/conflict"
              : nullptr;
      if (skip_reason == nullptr) {
        if (attribution.false_abort_events != r.false_abort_events ||
            attribution.falsely_aborted_txns != r.falsely_aborted_txns) {
          std::fprintf(
              stderr,
              "verify-trace: MISMATCH: trace events=%llu/txns=%llu, "
              "counters events=%llu/txns=%llu\n",
              static_cast<unsigned long long>(attribution.false_abort_events),
              static_cast<unsigned long long>(
                  attribution.falsely_aborted_txns),
              static_cast<unsigned long long>(r.false_abort_events),
              static_cast<unsigned long long>(r.falsely_aborted_txns));
          return 1;
        }
        std::printf(
            "verify-trace         attribution matches counters "
            "(false-abort events %llu, falsely aborted txns %llu)\n",
            static_cast<unsigned long long>(attribution.false_abort_events),
            static_cast<unsigned long long>(
                attribution.falsely_aborted_txns));
      } else {
        std::printf("verify-trace         counter cross-check skipped (%s)\n",
                    skip_reason);
      }
    }
  }

  if (const telemetry::TelemetrySampler* sampler = exp.sampler()) {
    const auto& samples = sampler->series().samples();
    std::printf("telemetry            %zu windows (%llu dropped) -> %s\n",
                samples.size(),
                static_cast<unsigned long long>(r.telemetry_dropped),
                r.telemetry_path.c_str());
    if (!params.telemetry.csv_path.empty()) {
      std::printf("telemetry CSV        -> %s\n",
                  params.telemetry.csv_path.c_str());
    }
    if (!params.telemetry.dashboard_path.empty()) {
      std::printf("dashboard            -> %s\n",
                  params.telemetry.dashboard_path.c_str());
    }
    if (verify_telemetry) {
      std::ifstream in(r.telemetry_path);
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      std::vector<telemetry::TelemetrySample> parsed;
      std::string err;
      if (!telemetry::read_telemetry_jsonl(text, parsed, &err)) {
        std::fprintf(stderr, "verify-telemetry: JSONL FAILED to parse: %s\n",
                     err.c_str());
        return 1;
      }
      if (parsed != samples) {
        std::fprintf(stderr,
                     "verify-telemetry: MISMATCH: %zu parsed windows do not "
                     "round-trip %zu recorded windows\n",
                     parsed.size(), samples.size());
        return 1;
      }
      std::uint64_t covered = 0;
      for (const auto& s : samples) covered += s.window;
      if (sampler->series().dropped() == 0 && covered != r.cycles) {
        std::fprintf(stderr,
                     "verify-telemetry: windows cover %llu cycles, run was "
                     "%llu\n",
                     static_cast<unsigned long long>(covered),
                     static_cast<unsigned long long>(r.cycles));
        return 1;
      }
      std::printf(
          "verify-telemetry     JSONL ok: %zu windows round-trip, %llu "
          "cycles covered\n",
          parsed.size(), static_cast<unsigned long long>(covered));
    }
  }

  if (profile_on) {
    std::ostringstream report;
    profiler.write_report(report);
    std::fputs(report.str().c_str(), stdout);
    if (!profile_out.empty()) {
      std::ofstream out(profile_out, std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "cannot write '%s'\n", profile_out.c_str());
        return 1;
      }
      profiler.write_json(out);
      std::printf("profile JSON         -> %s\n", profile_out.c_str());
    }
  }

  if (!csv_path.empty()) {
    const bool fresh = !std::filesystem::exists(csv_path);
    std::ofstream csv(csv_path, std::ios::app);
    if (fresh) csv << metrics::result_csv_header() << '\n';
    metrics::write_result_csv(r, csv);
    if (!csv.flush()) {
      std::fprintf(stderr, "cannot write '%s'\n", csv_path.c_str());
      return 1;
    }
    std::printf("result row appended to %s\n", csv_path.c_str());
  }

  if (dump_stats) {
    std::printf("\n-- full statistics registry --\n");
    const auto& stats = exp.cmp().kernel().stats();
    for (const auto& [name, c] : stats.counters()) {
      std::printf("%-40s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(c.value()));
    }
    for (const auto& [name, s] : stats.scalars()) {
      std::printf("%-40s mean=%.2f min=%.0f max=%.0f n=%llu\n", name.c_str(),
                  s.mean(), s.min(), s.max(),
                  static_cast<unsigned long long>(s.count()));
    }
    for (const auto& [name, h] : stats.histograms()) {
      std::printf("%-40s n=%llu mean=%.2f\n", name.c_str(),
                  static_cast<unsigned long long>(h.total()), h.mean());
    }
  }
  return r.completed ? 0 : 1;
}

// punobatch: parallel batch driver for arbitrary experiment grids.
//
//   ./punobatch --workloads intruder,vacation --schemes baseline,puno
//               --seeds 1..3 --set puno.timeout_fraction=0.25,1,4
//               --jobs 8 --csv out.csv --jsonl out.jsonl --manifest runs.jsonl
//
// Expands the workload x scheme x seed x config-override cross product,
// shards it over the experiment runner's worker threads, simulates every
// job, and writes the results as CSV and/or JSONL. Every --set adds a grid
// axis: --set KEY=V1,V2 multiplies the grid by one job per value. The JSONL
// manifest records one line per job (status, attempts, sim wall time,
// cycles/s, run key).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include <cstring>
#include <system_error>

#include "metrics/stats_io.hpp"
#include "trace/recorder.hpp"
#include "runner/grid.hpp"
#include "runner/runner.hpp"
#include "traffic/registry.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --workloads LIST  csv of workload names; \"all\" = the 8 STAMP\n"
      "                    profiles, \"traffic\" = the open-loop kernels,\n"
      "                    groups and names compose (default: all)\n"
      "  --list-workloads  print every registered workload and exit\n"
      "  --schemes LIST    csv of baseline|backoff|rmw|puno|reqwins|limited,\n"
      "                    or \"all\" (every registered scheme)\n"
      "                    (default: all)\n"
      "  --seeds SPEC      \"1,2,5\" or \"1..8\" (default: 1)\n"
      "  --scale X         committed-txn quota multiplier (default: 1.0)\n"
      "  --max-cycles N    per-run cycle budget (default: 30000000)\n"
      "  --set KEY=V[,V..] config override axis; repeatable, each axis\n"
      "                    multiplies the grid (see --list-keys)\n"
      "  --list-keys       print the overridable config keys and exit\n"
      "  --jobs N          worker threads (default: PUNO_JOBS, else all\n"
      "                    hardware threads)\n"
      "  --watchdog SECS   per-job wall-clock limit (default: off)\n"
      "  --csv FILE        write results as CSV (\"-\" = stdout)\n"
      "  --jsonl FILE      write results as JSONL (\"-\" = stdout)\n"
      "  --manifest FILE   write the per-job JSONL manifest\n"
      "  --trace[=FILTER]  record an event trace per job (docs/TRACING.md)\n"
      "  --trace-dir DIR   where per-job trace JSON + abort-attribution\n"
      "                    reports land (default: ./traces); manifest rows\n"
      "                    record each path\n"
      "  --telemetry[=N]   sample live gauges every N cycles per job,\n"
      "                    including the per-tile spatial channels\n"
      "                    (default 1000; docs/TELEMETRY.md)\n"
      "  --telemetry-dir DIR  where per-job telemetry JSONL lands (default:\n"
      "                    ./telemetry); manifest rows record each path\n"
      "  --dashboard-dir DIR  also write a per-job HTML dashboard (mesh\n"
      "                    heatmaps included) into DIR; implies --telemetry\n"
      "  --progress        live progress meter on stderr\n"
      "  --quiet           suppress the per-run result table\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace puno;

  std::string workloads_spec = "all";
  std::string schemes_spec = "all";
  std::string seeds_spec = "1";
  runner::GridSpec grid;
  runner::RunnerOptions options;
  std::string csv_path, jsonl_path;
  bool progress = false, quiet = false;
  bool trace_on = false;
  std::string trace_filter, trace_dir = "traces";
  bool telemetry_on = false;
  Cycle telemetry_interval = 1000;
  std::string telemetry_dir = "telemetry";
  std::string dashboard_dir;

  // A numeric flag's value, read with runner's checked parsers; exits 2
  // naming the flag and the value when it is malformed.
  const auto number = [](const char* flag, const char* text, auto parse,
                         auto& out) {
    if (!parse(text, out)) {
      std::fprintf(stderr, "punobatch: bad value '%s' for %s\n", text, flag);
      std::exit(2);
    }
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workloads") {
      workloads_spec = next();
    } else if (arg == "--schemes") {
      schemes_spec = next();
    } else if (arg == "--seeds") {
      seeds_spec = next();
    } else if (arg == "--scale") {
      number("--scale", next(), runner::parse_f64, grid.scale);
    } else if (arg == "--max-cycles") {
      number("--max-cycles", next(), runner::parse_u64, grid.max_cycles);
    } else if (arg == "--set") {
      const std::string kv = next();
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= kv.size()) {
        std::fprintf(stderr, "--set expects KEY=VALUE[,VALUE...], got '%s'\n",
                     kv.c_str());
        return 2;
      }
      runner::OverrideAxis axis;
      axis.key = kv.substr(0, eq);
      axis.values = runner::split_list(kv.substr(eq + 1));
      grid.overrides.push_back(std::move(axis));
    } else if (arg == "--list-keys") {
      for (const std::string& k : runner::override_keys()) {
        std::printf("%s\n", k.c_str());
      }
      return 0;
    } else if (arg == "--list-workloads") {
      for (const auto& e : traffic::registry::entries()) {
        std::printf("%-16s %s\n", e.name.c_str(), e.description.c_str());
      }
      return 0;
    } else if (arg == "--jobs") {
      number("--jobs", next(), runner::parse_u32, options.jobs);
    } else if (arg == "--watchdog") {
      number("--watchdog", next(), runner::parse_f64,
             options.watchdog_seconds);
    } else if (arg == "--csv") {
      csv_path = next();
    } else if (arg == "--jsonl") {
      jsonl_path = next();
    } else if (arg == "--manifest") {
      options.manifest_path = next();
    } else if (arg == "--trace") {
      trace_on = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_on = true;
      trace_filter = arg.substr(std::strlen("--trace="));
    } else if (arg == "--trace-dir") {
      trace_on = true;
      trace_dir = next();
    } else if (arg == "--telemetry") {
      telemetry_on = true;
    } else if (arg.rfind("--telemetry=", 0) == 0) {
      telemetry_on = true;
      number("--telemetry", arg.c_str() + std::strlen("--telemetry="),
             runner::parse_u64, telemetry_interval);
      if (telemetry_interval == 0) {
        std::fprintf(stderr, "--telemetry interval must be > 0\n");
        return 2;
      }
    } else if (arg == "--telemetry-dir") {
      telemetry_on = true;
      telemetry_dir = next();
    } else if (arg == "--dashboard-dir") {
      telemetry_on = true;
      dashboard_dir = next();
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  std::vector<runner::JobSpec> specs;
  try {
    grid.workloads = runner::parse_workload_list(workloads_spec);
    grid.schemes = runner::parse_scheme_list(schemes_spec);
    grid.seeds = runner::parse_seed_list(seeds_spec);
    specs = runner::expand_grid(grid);
    // A bad --set fails here, naming its job, before any job is built;
    // Cmp's own validate() stays as the backstop.
    for (const runner::JobSpec& spec : specs) {
      if (const auto err = validate(spec.params.config())) {
        throw std::invalid_argument(spec.label + ": invalid config: " + *err);
      }
    }
    options.jobs = runner::resolve_jobs(options.jobs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "punobatch: %s\n", e.what());
    return 2;
  }

  if (trace_on) {
    if (!trace::parse_filter(trace_filter)) {
      std::fprintf(stderr, "punobatch: unknown trace filter '%s'\n",
                   trace_filter.c_str());
      return 2;
    }
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    if (ec) {
      std::fprintf(stderr, "punobatch: cannot create '%s': %s\n",
                   trace_dir.c_str(), ec.message().c_str());
      return 1;
    }
    for (runner::JobSpec& spec : specs) {
      spec.params.trace.enabled = true;
      spec.params.trace.filter = trace_filter;
      // One file per job, named after the sanitized job label so a sweep's
      // traces are self-describing.
      std::string name = spec.label;
      for (char& c : name) {
        if (c == '/' || c == ' ' || c == '=' || c == ',') c = '_';
      }
      spec.params.trace.path =
          (std::filesystem::path(trace_dir) / (name + ".trace.json"))
              .string();
      // Abort attribution rides along: who aborted whom, per scheme.
      spec.params.trace.report_path =
          (std::filesystem::path(trace_dir) / (name + ".aborts.txt"))
              .string();
    }
  }

  if (telemetry_on) {
    std::error_code ec;
    std::filesystem::create_directories(telemetry_dir, ec);
    if (ec) {
      std::fprintf(stderr, "punobatch: cannot create '%s': %s\n",
                   telemetry_dir.c_str(), ec.message().c_str());
      return 1;
    }
    if (!dashboard_dir.empty()) {
      std::filesystem::create_directories(dashboard_dir, ec);
      if (ec) {
        std::fprintf(stderr, "punobatch: cannot create '%s': %s\n",
                     dashboard_dir.c_str(), ec.message().c_str());
        return 1;
      }
    }
    for (runner::JobSpec& spec : specs) {
      spec.params.telemetry.interval = telemetry_interval;
      // Batch runs always carry the per-tile channels: the whole point of
      // sampling a sweep is to compare spatial behavior across configs.
      spec.params.telemetry.spatial = true;
      // One JSONL per job, label-named like the per-job traces above.
      std::string name = spec.label;
      for (char& c : name) {
        if (c == '/' || c == ' ' || c == '=' || c == ',') c = '_';
      }
      spec.params.telemetry.jsonl_path =
          (std::filesystem::path(telemetry_dir) / (name + ".telemetry.jsonl"))
              .string();
      if (!dashboard_dir.empty()) {
        spec.params.telemetry.dashboard_path =
            (std::filesystem::path(dashboard_dir) / (name + ".dashboard.html"))
                .string();
      }
    }
  }

  options.progress = progress && !quiet;

  if (!quiet) {
    std::printf("punobatch: %zu jobs (%zu workloads x %zu schemes x %zu "
                "seeds%s) on %u workers\n",
                specs.size(), grid.workloads.size(), grid.schemes.size(),
                grid.seeds.size(),
                grid.overrides.empty() ? "" : " x config overrides",
                options.jobs);
  }

  runner::SweepResult sweep;
  try {
    sweep = runner::run_jobs(specs, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "punobatch: %s\n", e.what());
    return 1;
  }

  std::vector<metrics::RunResult> results;
  results.reserve(sweep.outcomes.size());
  for (const runner::JobOutcome& o : sweep.outcomes) {
    results.push_back(o.result);
  }

  if (!quiet) {
    std::printf("%-38s %-8s %12s %10s %10s %8s\n", "job", "status", "cycles",
                "commits", "aborts", "wall_s");
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto& o = sweep.outcomes[i];
      std::printf("%-38.38s %-8s %12llu %10llu %10llu %8.2f\n",
                  specs[i].label.c_str(), runner::to_string(o.status),
                  static_cast<unsigned long long>(o.result.cycles),
                  static_cast<unsigned long long>(o.result.commits),
                  static_cast<unsigned long long>(o.result.aborts),
                  o.wall_seconds);
      if (!o.error.empty()) {
        std::printf("  error: %s\n", o.error.c_str());
      }
    }
  }
  runner::print_summary(sweep, std::cout);

  const auto write_to = [](const std::string& path, const auto& writer) {
    if (path == "-") {
      writer(std::cout);
      return true;
    }
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "punobatch: cannot write '%s'\n", path.c_str());
      return false;
    }
    writer(out);
    return true;
  };
  bool io_ok = true;
  if (!csv_path.empty()) {
    io_ok &= write_to(csv_path, [&](std::ostream& out) {
      metrics::write_results_csv(results, out);
    });
    if (io_ok && csv_path != "-" && !quiet) {
      std::printf("results written to %s\n", csv_path.c_str());
    }
  }
  if (!jsonl_path.empty()) {
    io_ok &= write_to(jsonl_path, [&](std::ostream& out) {
      metrics::write_results_jsonl(results, out);
    });
    if (io_ok && jsonl_path != "-" && !quiet) {
      std::printf("results written to %s\n", jsonl_path.c_str());
    }
  }

  if (!sweep.manifest_error.empty()) {
    std::fprintf(stderr, "punobatch: %s\n", sweep.manifest_error.c_str());
    io_ok = false;
  }
  if (!io_ok) return 1;
  return sweep.failed == 0 ? 0 : 1;
}

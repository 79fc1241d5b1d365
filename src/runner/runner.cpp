#include "runner/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "metrics/stats_io.hpp"
#include "runner/aggregate.hpp"
#include "runner/grid.hpp"
#include "runner/run_key.hpp"
#include "sim/jsonio.hpp"

namespace puno::runner {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Internal: thrown by the built-in job body when the wall-clock watchdog
/// fires. Handled without a retry — a rerun would only time out again.
struct WatchdogExpired : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Simulated-cycle granularity of the watchdog poll: coarse enough to be
/// free, fine enough that an expired job dies within milliseconds.
constexpr Cycle kWatchdogCheckInterval = 1u << 16;

[[nodiscard]] metrics::RunResult simulate(const JobSpec& spec,
                                          double watchdog_seconds) {
  if (watchdog_seconds <= 0.0) return metrics::run_experiment(spec.params);
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(watchdog_seconds);
  bool expired = false;
  Cycle expired_at = 0;
  metrics::ExperimentWatch watch;
  watch.check_interval = kWatchdogCheckInterval;
  watch.stop = [&](Cycle now) {
    if (Clock::now() >= deadline) {
      expired = true;
      expired_at = now;
    }
    return expired;
  };
  metrics::RunResult r = metrics::run_experiment(spec.params, watch);
  if (expired) {
    char msg[128];
    std::snprintf(msg, sizeof msg,
                  "watchdog: exceeded %.3gs wall clock at cycle %llu",
                  watchdog_seconds,
                  static_cast<unsigned long long>(expired_at));
    throw WatchdogExpired(msg);
  }
  return r;
}

[[nodiscard]] std::string auto_label(const JobSpec& spec) {
  if (!spec.label.empty()) return spec.label;
  return spec.params.workload + "/" + to_string(spec.params.scheme) + "/s" +
         std::to_string(spec.params.seed);
}

void write_manifest_row(std::ostream& out, std::size_t index,
                        const JobSpec& spec, const JobOutcome& o) {
  const metrics::ExperimentParams& p = spec.params;
  const metrics::RunResult& r = o.result;
  ManifestRow row;
  row.index = index;
  row.label = auto_label(spec);
  row.workload = p.workload;
  row.scheme = to_string(p.scheme);
  row.seed = p.seed;
  row.scale = p.scale;
  row.max_cycles = p.max_cycles;
  row.num_nodes = p.base_config.num_nodes;
  row.mesh_width = p.base_config.noc.mesh_width;
  row.mesh_height = p.base_config.noc.rows();
  row.key = run_key(p);
  row.status = to_string(o.status);
  row.attempts = o.attempts;
  row.wall_s = o.wall_seconds;
  row.cycles = r.cycles;
  row.cycles_per_s = o.wall_seconds > 0.0
                         ? static_cast<double>(r.cycles) / o.wall_seconds
                         : 0.0;
  row.overrides = spec.overrides;
  row.trace_path = r.trace_path;
  row.trace_events = r.trace_events;
  row.trace_dropped = r.trace_dropped;
  row.telemetry_path = r.telemetry_path;
  row.telemetry_samples = r.telemetry_samples;
  row.telemetry_dropped = r.telemetry_dropped;
  row.error = o.error;
  sim::jsonio::write_record(out, row);
  out.flush();
}

}  // namespace

unsigned resolve_jobs(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* v = std::getenv("PUNO_JOBS"); v && v[0] != '\0') {
    std::uint32_t n = 0;
    if (!parse_u32(v, n)) {
      throw std::invalid_argument(std::string("bad PUNO_JOBS '") + v +
                                  "' (expected a worker count)");
    }
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

SweepResult run_jobs(const std::vector<JobSpec>& specs,
                     const RunnerOptions& options, const JobFn& fn) {
  SweepResult sweep;
  sweep.outcomes.resize(specs.size());
  const std::size_t want =
      std::min<std::size_t>(resolve_jobs(options.jobs), specs.size());
  sweep.jobs_used = static_cast<unsigned>(std::max<std::size_t>(1, want));

  std::ofstream manifest;
  if (!options.manifest_path.empty()) {
    manifest.open(options.manifest_path, std::ios::trunc);
    if (!manifest.is_open()) {
      throw std::runtime_error("cannot write manifest '" +
                               options.manifest_path + "'");
    }
  }

  const auto t0 = Clock::now();
  std::atomic<std::size_t> next{0};
  std::size_t completed = 0;  // guarded by book_mutex
  std::mutex book_mutex;      // progress + manifest + sweep counters

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= specs.size()) return;
      const JobSpec& spec = specs[i];
      JobOutcome& out = sweep.outcomes[i];
      // Identity stub so a failed row still names its experiment.
      out.result.workload = spec.params.workload;
      out.result.scheme = spec.params.scheme;

      for (int attempt = 1; attempt <= options.max_attempts; ++attempt) {
        out.attempts = attempt;
        const auto job_t0 = Clock::now();
        try {
          metrics::RunResult r =
              fn ? fn(spec) : simulate(spec, options.watchdog_seconds);
          out.wall_seconds = seconds_since(job_t0);
          out.result = std::move(r);
          out.status = JobStatus::kOk;
          out.error.clear();
          break;
        } catch (const WatchdogExpired& e) {
          out.wall_seconds = seconds_since(job_t0);
          out.status = JobStatus::kFailed;
          out.error = e.what();
          break;  // deliberate: no retry after a watchdog kill
        } catch (const std::exception& e) {
          out.wall_seconds = seconds_since(job_t0);
          out.status = JobStatus::kFailed;
          out.error = e.what();
        } catch (...) {
          out.wall_seconds = seconds_since(job_t0);
          out.status = JobStatus::kFailed;
          out.error = "unknown exception";
        }
      }

      std::lock_guard<std::mutex> lock(book_mutex);
      ++completed;
      sweep.sim_seconds += out.wall_seconds;
      if (out.status == JobStatus::kOk) {
        sweep.total_cycles += out.result.cycles;
      } else {
        ++sweep.failed;
      }
      if (manifest.is_open()) write_manifest_row(manifest, i, spec, out);
      if (options.progress) {
        const double elapsed = seconds_since(t0);
        const double eta =
            elapsed / static_cast<double>(completed) *
            static_cast<double>(specs.size() - completed);
        std::fprintf(stderr, "\r[%zu/%zu] %3.0f%% | ETA %5.1fs | %-44.44s",
                     completed, specs.size(),
                     100.0 * static_cast<double>(completed) /
                         static_cast<double>(specs.size()),
                     eta, auto_label(spec).c_str());
        std::fflush(stderr);
      }
    }
  };

  if (sweep.jobs_used == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(sweep.jobs_used);
    for (unsigned t = 0; t < sweep.jobs_used; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  if (options.progress) std::fprintf(stderr, "\r%78s\r", "");
  sweep.wall_seconds = seconds_since(t0);
  if (manifest.is_open()) {
    manifest.close();
    if (manifest.fail()) {
      sweep.manifest_error =
          "short write to manifest '" + options.manifest_path + "'";
    }
  }
  return sweep;
}

void print_summary(const SweepResult& s, std::ostream& out) {
  const std::size_t simulated = s.outcomes.size() - s.failed;
  char line[256];
  std::snprintf(line, sizeof line,
                "sweep: %zu jobs (%zu simulated, %zu failed) in "
                "%.2fs wall on %u worker%s",
                s.outcomes.size(), simulated, s.failed, s.wall_seconds,
                s.jobs_used, s.jobs_used == 1 ? "" : "s");
  out << line;
  // Speedup and throughput only mean something when work was simulated.
  if (simulated > 0 && s.sim_seconds > 0.0 && s.wall_seconds > 0.0) {
    std::snprintf(line, sizeof line,
                  "; sim time %.2fs, speedup %.2fx, %.1fM cycles/s aggregate",
                  s.sim_seconds, s.speedup(),
                  static_cast<double>(s.total_cycles) / s.wall_seconds / 1e6);
    out << line;
  }
  out << '\n';
}

}  // namespace puno::runner

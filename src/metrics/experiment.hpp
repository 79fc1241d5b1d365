// The one run path: make the workload, build the CMP, attach the requested
// observers, simulate, extract a RunResult. The runner (so every bench and
// punobatch), punosim and the examples all run through metrics::Experiment.
// Sweeps live in the parallel experiment runner (runner/runner.hpp).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "metrics/run_result.hpp"
#include "sim/config.hpp"
#include "telemetry/series.hpp"
#include "trace/recorder.hpp"
#include "workloads/workload.hpp"

namespace puno::arch {
class Cmp;
}  // namespace puno::arch

namespace puno::telemetry {
class TelemetrySampler;
}  // namespace puno::telemetry

namespace puno::metrics {

struct ExperimentParams {
  /// A traffic::registry name (STAMP profile or open-loop kernel), or the
  /// name a caller-built workload reports under.
  std::string workload = "vacation";
  Scheme scheme = Scheme::kBaseline;
  std::uint64_t seed = 1;
  /// Scales the per-node committed-transaction quota (1.0 = bench default).
  double scale = 1.0;
  Cycle max_cycles = 30'000'000;
  /// Overrides applied on top of the Table II defaults (set by ablations).
  SystemConfig base_config{};
  /// Event-trace request (docs/TRACING.md). Deliberately NOT part of the
  /// run key (runner/run_key.hpp): tracing never changes simulated
  /// behaviour, so a traced run is the same experiment as a plain one.
  trace::TraceRequest trace{};
  /// Telemetry-sampling request (docs/TELEMETRY.md). Excluded from the run
  /// key for the same reason as `trace`.
  telemetry::TelemetryRequest telemetry{};

  /// The machine the run builds: base_config with scheme and seed applied.
  [[nodiscard]] SystemConfig config() const {
    SystemConfig cfg = base_config;
    cfg.scheme = scheme;
    cfg.seed = seed;
    return cfg;
  }
};

/// Optional supervision of a running experiment: `stop` is polled every
/// `check_interval` simulated cycles and ends the run early (with
/// completed = false) when it returns true. The runner's wall-clock
/// watchdog is built on this; slicing does not perturb simulated behaviour.
struct ExperimentWatch {
  Cycle check_interval = 0;  ///< 0 = never poll.
  std::function<bool(Cycle)> stop;
};

/// One (workload, scheme, seed) run. The constructor builds the CMP and
/// attaches the recorder and sampler that params.trace and params.telemetry
/// ask for, so both see cycle 0; callers may attach more through cmp().
/// Throws std::invalid_argument for an unknown workload, a bad scale or a
/// config validate() rejects, std::runtime_error for a bad trace filter.
class Experiment {
 public:
  /// Makes params.workload from traffic::registry.
  explicit Experiment(const ExperimentParams& params);
  /// Runs a caller-built workload (a replay, a hand-made synthetic spec);
  /// params.workload names it in the outputs.
  Experiment(const ExperimentParams& params,
             std::unique_ptr<workloads::Workload> workload);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Simulates (once), detaches the observers, writes every requested file
  /// and returns the metrics. Throws std::runtime_error naming a file that
  /// cannot be written.
  [[nodiscard]] RunResult run(const ExperimentWatch& watch = {});

  [[nodiscard]] arch::Cmp& cmp() noexcept { return *cmp_; }
  /// Null when params.trace is off.
  [[nodiscard]] const trace::TraceRecorder* recorder() const noexcept {
    return recorder_.get();
  }
  /// Null when params.telemetry is off.
  [[nodiscard]] const telemetry::TelemetrySampler* sampler() const noexcept {
    return sampler_.get();
  }

 private:
  ExperimentParams params_;
  std::unique_ptr<workloads::Workload> workload_;
  std::unique_ptr<trace::TraceRecorder> recorder_;
  std::unique_ptr<telemetry::TelemetrySampler> sampler_;
  // Declared last, so the machine goes before the observers it points at.
  std::unique_ptr<arch::Cmp> cmp_;
};

/// Experiment(params).run(watch).
[[nodiscard]] RunResult run_experiment(const ExperimentParams& params,
                                       const ExperimentWatch& watch = {});

}  // namespace puno::metrics

#include "metrics/experiment.hpp"

#include <fstream>
#include <stdexcept>

#include "arch/cmp.hpp"
#include "telemetry/dashboard.hpp"
#include "telemetry/export.hpp"
#include "telemetry/sampler.hpp"
#include "trace/abort_attribution.hpp"
#include "trace/chrome_export.hpp"
#include "traffic/registry.hpp"

namespace puno::metrics {

namespace {

[[nodiscard]] std::runtime_error cannot_write(const std::string& path) {
  return std::runtime_error("cannot write '" + path + "'");
}

[[nodiscard]] std::ofstream open_out(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) throw cannot_write(path);
  return out;
}

}  // namespace

Experiment::Experiment(const ExperimentParams& params)
    : Experiment(params, traffic::registry::make(params.workload,
                                                 params.config(),
                                                 params.scale)) {}

Experiment::Experiment(const ExperimentParams& params,
                       std::unique_ptr<workloads::Workload> workload)
    : params_(params),
      workload_(std::move(workload)),
      cmp_(std::make_unique<arch::Cmp>(params.config(), *workload_)) {
  // Attach the recorder before the first cycle so txn begins are never
  // missed.
  if (params_.trace.active()) {
    const auto mask = trace::parse_filter(params_.trace.filter);
    if (!mask) {
      throw std::runtime_error("trace: unknown filter '" +
                               params_.trace.filter + "'");
    }
    recorder_ =
        std::make_unique<trace::TraceRecorder>(params_.trace.capacity, *mask);
    cmp_->kernel().set_tracer(recorder_.get());
  }

  // The sampler's hook registers before the first cycle so window 0 starts
  // at cycle 0. Pure observer: attaching it never changes the RunResult
  // (tests/telemetry/telemetry_integration_test.cpp asserts bit-identity).
  if (params_.telemetry.active()) {
    sampler_ = telemetry::TelemetrySampler::attach(*cmp_, params_.telemetry);
  }
}

Experiment::~Experiment() = default;

RunResult Experiment::run(const ExperimentWatch& watch) {
  sim::Kernel& kernel = cmp_->kernel();
  const SystemConfig& cfg = cmp_->config();
  const bool completed =
      cmp_->run(params_.max_cycles, watch.check_interval, watch.stop);

  RunResult r = RunResult::from_stats(kernel.stats());
  r.workload = params_.workload;
  r.scheme = params_.scheme;
  r.completed = completed;
  r.cycles = kernel.now();

  if (recorder_ != nullptr) {
    kernel.set_tracer(nullptr);
    r.trace_events = recorder_->size();
    r.trace_dropped = recorder_->dropped();
    if (!params_.trace.path.empty()) {
      trace::TraceMeta meta;
      meta.workload = params_.workload;
      meta.scheme = to_string(params_.scheme);
      meta.seed = params_.seed;
      meta.num_nodes = cfg.num_nodes;
      meta.final_cycle = kernel.now();
      if (!trace::write_chrome_trace_file(*recorder_, meta,
                                          params_.trace.path)) {
        throw cannot_write(params_.trace.path);
      }
      r.trace_path = params_.trace.path;
    }
    if (!params_.trace.report_path.empty()) {
      auto out = open_out(params_.trace.report_path);
      trace::write_abort_report(trace::attribute_aborts(*recorder_), out);
    }
  }

  if (sampler_ != nullptr) {
    sampler_->finish();  // close the final partial window
    const auto& samples = sampler_->series().samples();
    r.telemetry_samples = samples.size();
    r.telemetry_dropped = sampler_->series().dropped();
    if (!params_.telemetry.jsonl_path.empty()) {
      auto out = open_out(params_.telemetry.jsonl_path);
      telemetry::write_telemetry_jsonl(samples, out);
      r.telemetry_path = params_.telemetry.jsonl_path;
    }
    if (!params_.telemetry.csv_path.empty()) {
      auto out = open_out(params_.telemetry.csv_path);
      telemetry::write_telemetry_csv(samples, cfg.num_nodes, out);
    }
    if (!params_.telemetry.dashboard_path.empty()) {
      auto out = open_out(params_.telemetry.dashboard_path);
      telemetry::DashboardMeta meta;
      meta.workload = params_.workload;
      meta.scheme = to_string(params_.scheme);
      meta.cycles = kernel.now();
      meta.interval = sampler_->interval();
      meta.dropped = sampler_->series().dropped();
      meta.num_nodes = cfg.num_nodes;
      meta.mesh_width = cfg.noc.mesh_width;
      meta.mesh_height = cfg.noc.rows();
      telemetry::write_dashboard_html(meta, samples, &kernel.stats(), out);
    }
  }
  return r;
}

RunResult run_experiment(const ExperimentParams& params,
                         const ExperimentWatch& watch) {
  return Experiment(params).run(watch);
}

}  // namespace puno::metrics

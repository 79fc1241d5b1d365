// Sensitivity ablation over PUNO's design parameters (DESIGN.md): validity
// threshold, staleness-decay rate (timeout fraction), the notified-backoff
// cap, and the minimum-sharer unicast rule. Run on one representative
// high-contention workload (intruder) and one moderate one (vacation).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common/bench_util.hpp"

namespace {

using namespace puno;

void report(const char* label, const metrics::RunResult& r,
            const metrics::RunResult& base) {
  std::printf("  %-24s cyc %6.3f  aborts %6.3f  traffic %6.3f  hit %5.1f%% "
              "uni %6llu\n",
              label, static_cast<double>(r.cycles) / base.cycles,
              static_cast<double>(r.aborts) / base.aborts,
              static_cast<double>(r.router_traversals) /
                  base.router_traversals,
              r.prediction_hit_rate() * 100.0,
              static_cast<unsigned long long>(r.unicast_forwards));
}

/// One row of the study: a label and the machine it runs under PUNO.
struct Variant {
  std::string label;
  SystemConfig config;
};

/// Every workload's rows, in print order.
std::vector<Variant> variants() {
  std::vector<Variant> rows;
  // Appends a default-config row and returns its PUNO knobs to vary.
  const auto add = [&rows](const char* label) -> PunoConfig& {
    rows.push_back({label, SystemConfig{}});
    return rows.back().config.puno;
  };
  char label[64];
  add("PUNO default");
  for (int thr : {0, 2}) {
    std::snprintf(label, sizeof label, "validity>%d", thr);
    add(label).validity_threshold = static_cast<std::uint8_t>(thr);
  }
  for (double frac : {0.25, 4.0}) {
    std::snprintf(label, sizeof label, "timeout %.2fx txn len", frac);
    add(label).timeout_fraction = frac;
  }
  for (Cycle cap : {Cycle{60}, Cycle{240}}) {
    std::snprintf(label, sizeof label, "backoff cap %llu",
                  static_cast<unsigned long long>(cap));
    add(label).max_notified_backoff = cap;
  }
  add("unicast even to 1 sharer").unicast_min_sharers = 1;
  return rows;
}

}  // namespace

int main() {
  // Per workload: one Baseline job, then one PUNO job per variant.
  const std::vector<std::string> workloads = {"intruder", "vacation"};
  const std::vector<Variant> rows = variants();
  std::vector<runner::JobSpec> specs;
  for (const std::string& w : workloads) {
    runner::JobSpec spec;
    spec.params.workload = w;
    specs.push_back(spec);
    spec.params.scheme = Scheme::kPuno;
    for (const Variant& v : rows) {
      spec.params.base_config = v.config;
      spec.label = w + "/" + v.label;
      specs.push_back(spec);
    }
  }
  const runner::SweepResult sweep = bench::run_batch(specs);

  std::printf("PUNO parameter sensitivity\n");
  std::printf("==========================\n");
  std::size_t job = 0;
  for (const std::string& w : workloads) {
    const metrics::RunResult& base = sweep.outcomes[job++].result;
    std::printf("%s (values normalized to Baseline)\n", w.c_str());
    for (const Variant& v : rows) {
      report(v.label.c_str(), sweep.outcomes[job++].result, base);
    }
    std::printf("\n");
  }
  std::printf("Defaults: validity>1, timeout = 1.0x average transaction\n"
              "length, uncapped notified backoff (the paper's formula),\n"
              "unicast only for >=2 sharers.\n");
  return 0;
}

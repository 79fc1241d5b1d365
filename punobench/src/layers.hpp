// Simulated per-layer statistics: merging the StatsRegistry of finished runs
// and turning the merged counts into named metrics, each ratio with its base.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/stats.hpp"

namespace punobench {

/// num / den, or 0 when there is no base to divide by.
[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// One reported metric. `base` spells out what a ratio or percentile was
/// computed from ("" for a plain count or time).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;
};

/// The simulated statistics of one or more finished runs, merged by name:
/// counters and histogram buckets add, scalars pool their samples.
class Counts {
 public:
  void add(const puno::sim::StatsRegistry& stats);
  void merge(const Counts& other);

  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  [[nodiscard]] double scalar_sum(const std::string& name) const;
  [[nodiscard]] std::uint64_t scalar_count(const std::string& name) const;
  [[nodiscard]] double scalar_max(const std::string& name) const;
  [[nodiscard]] std::uint64_t hist_total(const std::string& name) const;
  /// Index of the histogram's overflow bucket (its cap), 0 if absent.
  [[nodiscard]] std::uint64_t hist_cap(const std::string& name) const;
  /// sim::Histogram::percentile's rule applied to the merged buckets.
  [[nodiscard]] std::uint64_t hist_percentile(const std::string& name,
                                              double p) const;

 private:
  struct Pooled {
    double sum = 0.0;
    double max = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, Pooled> scalars_;
  std::map<std::string, std::vector<std::uint64_t>> hists_;
};

/// End-to-end metrics of the modelled design (Figs. 2, 10, 11, 13).
[[nodiscard]] std::vector<Metric> design_metrics(const Counts& c,
                                                 std::uint64_t sim_cycles);

/// Open-loop outcomes: queue-delay percentiles and the shed share. Zero on
/// closed-loop runs, which never queue or shed.
[[nodiscard]] std::vector<Metric> traffic_outcome_metrics(const Counts& c);

/// Simulated per-layer metrics of puno_noc, puno_coherence, puno_htm,
/// puno_core and puno_traffic. `puno` holds only the PUNO-scheme runs, over
/// which the predictor metrics are defined.
[[nodiscard]] std::vector<Metric> layer_count_metrics(const Counts& all,
                                                      const Counts& puno);

}  // namespace punobench

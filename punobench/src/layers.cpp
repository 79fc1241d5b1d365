#include "layers.hpp"

#include <algorithm>
#include <cstdio>

namespace punobench {

namespace {

[[nodiscard]] std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// "<num_name> N / <den_name> D".
[[nodiscard]] std::string over(const std::string& num_name, double n,
                               const std::string& den_name, double d) {
  return num_name + " " + num(n) + " / " + den_name + " " + num(d);
}

[[nodiscard]] Metric count(const Counts& c, const std::string& name) {
  return {name, static_cast<double>(c.counter(name)), "count", ""};
}

/// p-th percentile of histogram `hist`, with its sample count and cap.
[[nodiscard]] Metric percentile(const Counts& c, const std::string& name,
                                const std::string& hist, double p) {
  return {name, static_cast<double>(c.hist_percentile(hist, p)), "cycles",
          hist + " n=" + num(static_cast<double>(c.hist_total(hist))) +
              ", cap " + num(static_cast<double>(c.hist_cap(hist))) +
              " = at or past the cap"};
}

[[nodiscard]] Metric scalar_mean(const Counts& c, const std::string& name,
                                 const std::string& scalar) {
  const double n = static_cast<double>(c.scalar_count(scalar));
  return {name, ratio(c.scalar_sum(scalar), n), "cycles",
          over("sum(" + scalar + ")", c.scalar_sum(scalar), "samples", n)};
}

[[nodiscard]] Metric scalar_max(const Counts& c, const std::string& name,
                                const std::string& scalar) {
  return {name, c.scalar_max(scalar), "cycles",
          scalar + " samples " +
              num(static_cast<double>(c.scalar_count(scalar)))};
}

}  // namespace

void Counts::add(const puno::sim::StatsRegistry& stats) {
  for (const auto& [name, ctr] : stats.counters()) {
    counters_[name] += ctr.value();
  }
  for (const auto& [name, s] : stats.scalars()) {
    Pooled& p = scalars_[name];
    if (s.count() != 0) {
      p.max = p.count == 0 ? s.max() : std::max(p.max, s.max());
    }
    p.sum += s.sum();
    p.count += s.count();
  }
  for (const auto& [name, h] : stats.histograms()) {
    std::vector<std::uint64_t>& b = hists_[name];
    if (b.size() < h.num_buckets()) b.resize(h.num_buckets(), 0);
    for (std::size_t i = 0; i < h.num_buckets(); ++i) b[i] += h.bucket(i);
  }
}

void Counts::merge(const Counts& other) {
  for (const auto& [name, v] : other.counters_) counters_[name] += v;
  for (const auto& [name, o] : other.scalars_) {
    Pooled& p = scalars_[name];
    if (o.count != 0) p.max = p.count == 0 ? o.max : std::max(p.max, o.max);
    p.sum += o.sum;
    p.count += o.count;
  }
  for (const auto& [name, ob] : other.hists_) {
    std::vector<std::uint64_t>& b = hists_[name];
    if (b.size() < ob.size()) b.resize(ob.size(), 0);
    for (std::size_t i = 0; i < ob.size(); ++i) b[i] += ob[i];
  }
}

std::uint64_t Counts::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double Counts::scalar_sum(const std::string& name) const {
  const auto it = scalars_.find(name);
  return it == scalars_.end() ? 0.0 : it->second.sum;
}

std::uint64_t Counts::scalar_count(const std::string& name) const {
  const auto it = scalars_.find(name);
  return it == scalars_.end() ? 0 : it->second.count;
}

double Counts::scalar_max(const std::string& name) const {
  const auto it = scalars_.find(name);
  return it == scalars_.end() ? 0.0 : it->second.max;
}

std::uint64_t Counts::hist_total(const std::string& name) const {
  const auto it = hists_.find(name);
  if (it == hists_.end()) return 0;
  std::uint64_t total = 0;
  for (const std::uint64_t b : it->second) total += b;
  return total;
}

std::uint64_t Counts::hist_cap(const std::string& name) const {
  const auto it = hists_.find(name);
  return it == hists_.end() || it->second.empty() ? 0
                                                  : it->second.size() - 1;
}

std::uint64_t Counts::hist_percentile(const std::string& name,
                                      double p) const {
  const std::uint64_t total = hist_total(name);
  if (total == 0) return 0;
  const std::vector<std::uint64_t>& b = hists_.at(name);
  const double want = std::clamp(p, 0.0, 1.0) * static_cast<double>(total);
  auto rank = static_cast<std::uint64_t>(want);
  if (static_cast<double>(rank) < want || rank == 0) ++rank;
  rank = std::min(rank, total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    cum += b[i];
    if (cum >= rank) return i;
  }
  return b.size() - 1;
}

std::vector<Metric> design_metrics(const Counts& c, std::uint64_t sim_cycles) {
  const double commits = static_cast<double>(c.counter("htm.commits"));
  const double aborts = static_cast<double>(c.counter("htm.aborts"));
  const double false_events =
      static_cast<double>(c.counter("htm.false_abort_events"));
  const double getx = static_cast<double>(c.counter("l1.tx_getx_issued"));
  const double hops = static_cast<double>(c.counter("noc.router_traversals"));
  return {
      {"sim_cycles", static_cast<double>(sim_cycles), "cycles",
       "sum of simulated cycles over every job"},
      {"abort_rate", ratio(aborts, commits + aborts), "fraction",
       over("htm.aborts", aborts, "htm.commits+htm.aborts", commits + aborts)},
      {"false_abort_frac", ratio(false_events, getx), "fraction",
       over("htm.false_abort_events", false_events, "l1.tx_getx_issued",
            getx)},
      {"flits_per_commit", ratio(hops, commits), "hops/commit",
       over("noc.router_traversals", hops, "htm.commits", commits)},
  };
}

std::vector<Metric> traffic_outcome_metrics(const Counts& c) {
  const double offered = static_cast<double>(c.counter("traffic.offered"));
  const double dropped = static_cast<double>(c.counter("traffic.dropped"));
  return {
      percentile(c, "queue_delay_p50_cycles", "traffic.queue_delay", 0.50),
      percentile(c, "queue_delay_p99_cycles", "traffic.queue_delay", 0.99),
      {"drop_frac", ratio(dropped, offered), "fraction",
       over("traffic.dropped", dropped, "traffic.offered", offered)},
  };
}

std::vector<Metric> layer_count_metrics(const Counts& all,
                                        const Counts& puno) {
  const auto d = [&all](const char* name) {
    return static_cast<double>(all.counter(name));
  };
  const double accesses = d("l1.loads") + d("l1.stores");
  const double txgetx = d("l1.tx_getx_issued");
  const double services = d("dir.txgetx_services");
  const double blocked = all.scalar_sum("dir.txgetx_blocked_cycles");
  const double good = d("htm.good_cycles");
  const double discarded = d("htm.discarded_cycles");
  const double unicasts =
      static_cast<double>(puno.counter("dir.unicast_forwards"));
  const double mp = static_cast<double>(puno.counter("dir.mp_feedbacks"));
  const double evictions =
      static_cast<double>(puno.counter("puno.pbuffer_evictions"));
  const double puno_txgetx =
      static_cast<double>(puno.counter("l1.tx_getx_issued"));

  std::vector<Metric> out = {
      // puno_noc
      count(all, "noc.router_traversals"),
      count(all, "noc.packets_sent"),
      scalar_mean(all, "noc.packet_latency_mean_cycles", "noc.packet_latency"),
      scalar_max(all, "noc.packet_latency_max_cycles", "noc.packet_latency"),
      // puno_coherence
      {"l1.hit_rate", ratio(d("l1.hits"), accesses), "fraction",
       over("l1.hits", d("l1.hits"), "l1.loads+l1.stores", accesses)},
      count(all, "l1.tx_getx_issued"),
      {"l1.nack_frac", ratio(d("l1.tx_getx_nacked"), txgetx), "fraction",
       over("l1.tx_getx_nacked", d("l1.tx_getx_nacked"), "l1.tx_getx_issued",
            txgetx)},
      count(all, "l1.request_retries"),
      scalar_mean(all, "l1.contended_acquire_mean_cycles",
                  "l1.contended_acquire_latency"),
      scalar_max(all, "l1.contended_acquire_max_cycles",
                 "l1.contended_acquire_latency"),
      count(all, "dir.requests"),
      count(all, "dir.multicast_invs"),
      {"dir.blocked_mean_cycles", ratio(blocked, services), "cycles",
       over("sum(dir.txgetx_blocked_cycles)", blocked, "dir.txgetx_services",
            services)},
      // puno_htm
      count(all, "htm.commits"),
      count(all, "htm.aborts"),
      count(all, "htm.falsely_aborted_txns"),
      {"htm.gd_ratio", ratio(good, discarded), "ratio",
       over("htm.good_cycles", good, "htm.discarded_cycles", discarded)},
      percentile(all, "htm.txn_len_p50_cycles", "htm.txn_len_cycles", 0.50),
      percentile(all, "htm.txn_len_p99_cycles", "htm.txn_len_cycles", 0.99),
      percentile(all, "htm.backoff_p99_cycles", "htm.backoff_cycles", 0.99),
      count(all, "htm.notified_backoffs"),
      // puno_core (PUNO-scheme jobs only)
      count(puno, "puno.unicast_predictions"),
      count(puno, "puno.multicast_fallbacks"),
      {"puno.prediction_hit_rate", unicasts == 0.0 ? 0.0 : 1.0 - mp / unicasts,
       "fraction",
       "1 - " + over("dir.mp_feedbacks", mp, "dir.unicast_forwards", unicasts)},
      {"puno.pbuffer_evictions_per_txgetx", ratio(evictions, puno_txgetx),
       "evictions/getx",
       over("puno.pbuffer_evictions", evictions, "l1.tx_getx_issued (PUNO)",
            puno_txgetx)},
      // puno_traffic
      count(all, "traffic.offered"),
      count(all, "traffic.admitted"),
      count(all, "traffic.dropped"),
      count(all, "traffic.begun"),
  };
  for (Metric& m : traffic_outcome_metrics(all)) out.push_back(std::move(m));
  return out;
}

}  // namespace punobench

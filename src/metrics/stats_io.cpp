#include "metrics/stats_io.hpp"

#include <cstdio>
#include <ostream>

#include "sim/jsonio.hpp"

namespace puno::metrics {

void write_stats_csv(const sim::StatsRegistry& stats, std::ostream& out) {
  out << "kind,name,field,value\n";
  for (const auto& [name, c] : stats.counters()) {
    out << "counter," << name << ",value," << c.value() << "\n";
  }
  for (const auto& [name, s] : stats.scalars()) {
    out << "scalar," << name << ",count," << s.count() << "\n";
    out << "scalar," << name << ",mean," << s.mean() << "\n";
    out << "scalar," << name << ",min," << s.min() << "\n";
    out << "scalar," << name << ",max," << s.max() << "\n";
  }
  for (const auto& [name, h] : stats.histograms()) {
    out << "histogram," << name << ",total," << h.total() << "\n";
    out << "histogram," << name << ",mean," << h.mean() << "\n";
    for (std::size_t b = 0; b < h.num_buckets(); ++b) {
      if (h.bucket(b) == 0) continue;
      out << "histogram," << name << ",bucket" << b << "," << h.bucket(b)
          << "\n";
    }
  }
}

std::string result_csv_header() {
  return "workload,scheme,completed,cycles,commits,aborts,aborts_by_getx,"
         "aborts_by_gets,aborts_overflow,abort_rate,tx_getx_issued,"
         "tx_getx_nacked,request_retries,false_abort_events,"
         "falsely_aborted_txns,false_abort_fraction,router_traversals,"
         "dir_blocked_mean,good_cycles,discarded_cycles,gd_ratio,"
         "unicast_forwards,mp_feedbacks,prediction_hit_rate,"
         "notified_backoffs,commit_hints_sent,hint_wakeups,"
         "offered_txns,dropped_txns,drop_rate,"
         "queue_delay_p50,queue_delay_p90,queue_delay_p99";
}

void write_result_csv(const RunResult& r, std::ostream& out) {
  out << r.workload << ',' << to_string(r.scheme) << ',' << r.completed << ','
      << r.cycles << ',' << r.commits << ',' << r.aborts << ','
      << r.aborts_by_getx << ',' << r.aborts_by_gets << ','
      << r.aborts_overflow << ',' << r.abort_rate() << ','
      << r.tx_getx_issued << ',' << r.tx_getx_nacked << ','
      << r.request_retries << ',' << r.false_abort_events << ','
      << r.falsely_aborted_txns << ',' << r.false_abort_fraction() << ','
      << r.router_traversals << ',' << r.dir_blocked_mean << ','
      << r.good_cycles << ',' << r.discarded_cycles << ',' << r.gd_ratio()
      << ',' << r.unicast_forwards << ',' << r.mp_feedbacks << ','
      << r.prediction_hit_rate() << ',' << r.notified_backoffs << ','
      << r.commit_hints_sent << ',' << r.hint_wakeups << ','
      << r.offered_txns << ',' << r.dropped_txns << ',' << r.drop_rate()
      << ',' << r.queue_delay_p50 << ',' << r.queue_delay_p90 << ','
      << r.queue_delay_p99 << '\n';
}

void write_results_csv(const std::vector<RunResult>& results,
                       std::ostream& out) {
  out << result_csv_header() << '\n';
  for (const RunResult& r : results) write_result_csv(r, out);
}

// The JSON mechanics live in sim/jsonio.hpp, the tree's one JSON reader and
// escaper; this file only knows the RunResult schema.
namespace {

using sim::jsonio::escape;
using sim::jsonio::parse_bool;
using sim::jsonio::parse_double;
using sim::jsonio::parse_double_array;
using sim::jsonio::parse_string;
using sim::jsonio::parse_u64;
using sim::jsonio::write_double;

[[nodiscard]] bool parse_result_field(std::string_view& s,
                                      const std::string& key, RunResult& r) {
  if (key == "workload") return parse_string(s, r.workload);
  if (key == "scheme") {
    std::string name;
    if (!parse_string(s, name)) return false;
    const auto scheme = scheme_from_string(name);
    if (!scheme) return false;
    r.scheme = *scheme;
    return true;
  }
  if (key == "completed") return parse_bool(s, r.completed);
  if (key == "cycles") return parse_u64(s, r.cycles);
  if (key == "commits") return parse_u64(s, r.commits);
  if (key == "aborts") return parse_u64(s, r.aborts);
  if (key == "aborts_by_getx") return parse_u64(s, r.aborts_by_getx);
  if (key == "aborts_by_gets") return parse_u64(s, r.aborts_by_gets);
  if (key == "aborts_overflow") return parse_u64(s, r.aborts_overflow);
  if (key == "tx_getx_issued") return parse_u64(s, r.tx_getx_issued);
  if (key == "tx_getx_nacked") return parse_u64(s, r.tx_getx_nacked);
  if (key == "request_retries") return parse_u64(s, r.request_retries);
  if (key == "retries_per_contended_acquire") {
    return parse_double(s, r.retries_per_contended_acquire);
  }
  if (key == "false_abort_events") {
    return parse_u64(s, r.false_abort_events);
  }
  if (key == "falsely_aborted_txns") {
    return parse_u64(s, r.falsely_aborted_txns);
  }
  if (key == "false_abort_multiplicity") {
    return parse_double_array(s, r.false_abort_multiplicity);
  }
  if (key == "router_traversals") {
    return parse_u64(s, r.router_traversals);
  }
  if (key == "dir_blocked_mean") return parse_double(s, r.dir_blocked_mean);
  if (key == "dir_txgetx_services") {
    return parse_u64(s, r.dir_txgetx_services);
  }
  if (key == "good_cycles") return parse_u64(s, r.good_cycles);
  if (key == "discarded_cycles") return parse_u64(s, r.discarded_cycles);
  if (key == "unicast_forwards") return parse_u64(s, r.unicast_forwards);
  if (key == "mp_feedbacks") return parse_u64(s, r.mp_feedbacks);
  if (key == "notified_backoffs") {
    return parse_u64(s, r.notified_backoffs);
  }
  if (key == "commit_hints_sent") {
    return parse_u64(s, r.commit_hints_sent);
  }
  if (key == "hint_wakeups") return parse_u64(s, r.hint_wakeups);
  if (key == "trace_path") return parse_string(s, r.trace_path);
  if (key == "trace_events") return parse_u64(s, r.trace_events);
  if (key == "trace_dropped") return parse_u64(s, r.trace_dropped);
  if (key == "telemetry_path") return parse_string(s, r.telemetry_path);
  if (key == "telemetry_samples") {
    return parse_u64(s, r.telemetry_samples);
  }
  if (key == "telemetry_dropped") {
    return parse_u64(s, r.telemetry_dropped);
  }
  if (key == "offered_txns") return parse_u64(s, r.offered_txns);
  if (key == "dropped_txns") return parse_u64(s, r.dropped_txns);
  if (key == "queue_delay_p50") return parse_u64(s, r.queue_delay_p50);
  if (key == "queue_delay_p90") return parse_u64(s, r.queue_delay_p90);
  if (key == "queue_delay_p99") return parse_u64(s, r.queue_delay_p99);
  return sim::jsonio::skip_value(s);  // unknown key: ignore for forward compat
}

}  // namespace

void write_result_jsonl(const RunResult& r, std::ostream& out) {
  out << "{\"workload\":\"" << escape(r.workload) << "\",\"scheme\":\""
      << to_string(r.scheme)
      << "\",\"completed\":" << (r.completed ? "true" : "false")
      << ",\"cycles\":" << r.cycles << ",\"commits\":" << r.commits
      << ",\"aborts\":" << r.aborts
      << ",\"aborts_by_getx\":" << r.aborts_by_getx
      << ",\"aborts_by_gets\":" << r.aborts_by_gets
      << ",\"aborts_overflow\":" << r.aborts_overflow
      << ",\"tx_getx_issued\":" << r.tx_getx_issued
      << ",\"tx_getx_nacked\":" << r.tx_getx_nacked
      << ",\"request_retries\":" << r.request_retries
      << ",\"retries_per_contended_acquire\":";
  write_double(out, r.retries_per_contended_acquire);
  out << ",\"false_abort_events\":" << r.false_abort_events
      << ",\"falsely_aborted_txns\":" << r.falsely_aborted_txns
      << ",\"false_abort_multiplicity\":[";
  for (std::size_t i = 0; i < r.false_abort_multiplicity.size(); ++i) {
    if (i != 0) out << ',';
    write_double(out, r.false_abort_multiplicity[i]);
  }
  out << "],\"router_traversals\":" << r.router_traversals
      << ",\"dir_blocked_mean\":";
  write_double(out, r.dir_blocked_mean);
  out << ",\"dir_txgetx_services\":" << r.dir_txgetx_services
      << ",\"good_cycles\":" << r.good_cycles
      << ",\"discarded_cycles\":" << r.discarded_cycles
      << ",\"unicast_forwards\":" << r.unicast_forwards
      << ",\"mp_feedbacks\":" << r.mp_feedbacks
      << ",\"notified_backoffs\":" << r.notified_backoffs
      << ",\"commit_hints_sent\":" << r.commit_hints_sent
      << ",\"hint_wakeups\":" << r.hint_wakeups;
  // Trace metadata only appears when a trace was attached, so untraced rows
  // stay byte-identical to the pre-tracing schema.
  if (!r.trace_path.empty() || r.trace_events > 0 || r.trace_dropped > 0) {
    out << ",\"trace_path\":\"" << escape(r.trace_path)
        << "\",\"trace_events\":" << r.trace_events
        << ",\"trace_dropped\":" << r.trace_dropped;
  }
  // Same conditional contract for telemetry metadata: untraced/unsampled
  // rows stay byte-identical to the historical schema.
  if (!r.telemetry_path.empty() || r.telemetry_samples > 0 ||
      r.telemetry_dropped > 0) {
    out << ",\"telemetry_path\":\"" << escape(r.telemetry_path)
        << "\",\"telemetry_samples\":" << r.telemetry_samples
        << ",\"telemetry_dropped\":" << r.telemetry_dropped;
  }
  // Open-loop traffic fields only appear when arrivals were offered, so
  // closed-loop rows keep the historical schema byte-for-byte.
  if (r.offered_txns > 0) {
    out << ",\"offered_txns\":" << r.offered_txns
        << ",\"dropped_txns\":" << r.dropped_txns
        << ",\"queue_delay_p50\":" << r.queue_delay_p50
        << ",\"queue_delay_p90\":" << r.queue_delay_p90
        << ",\"queue_delay_p99\":" << r.queue_delay_p99;
  }
  out << "}\n";
}

void write_results_jsonl(const std::vector<RunResult>& results,
                         std::ostream& out) {
  for (const RunResult& r : results) write_result_jsonl(r, out);
}

bool read_result_jsonl(std::string_view line, RunResult& result,
                       std::string* err) {
  result = RunResult{};
  return sim::jsonio::parse_document(
      line,
      [&](const std::string& key, std::string_view& s) {
        return parse_result_field(s, key, result);
      },
      err);
}

}  // namespace puno::metrics

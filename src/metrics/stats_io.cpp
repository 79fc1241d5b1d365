#include "metrics/stats_io.hpp"

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

void write_result_jsonl(const RunResult& r, std::ostream& out) {
  sim::jsonio::write_record(out, r);
}

void write_results_jsonl(const std::vector<RunResult>& results,
                         std::ostream& out) {
  for (const RunResult& r : results) write_result_jsonl(r, out);
}

bool read_result_jsonl(std::string_view line, RunResult& result,
                       std::string* err) {
  return sim::jsonio::read_record(line, result, err);
}

}  // namespace puno::metrics

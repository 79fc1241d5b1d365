#include "metrics/stats_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

namespace puno::metrics {
namespace {

TEST(StatsIo, RegistryCsvContainsEveryStat) {
  sim::StatsRegistry stats;
  stats.counter("a.count").add(7);
  stats.scalar("b.lat").sample(10);
  stats.scalar("b.lat").sample(20);
  stats.histogram("c.dist", 8).sample(3);

  std::ostringstream out;
  write_stats_csv(stats, out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("kind,name,field,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,a.count,value,7"), std::string::npos);
  EXPECT_NE(csv.find("scalar,b.lat,mean,15"), std::string::npos);
  EXPECT_NE(csv.find("scalar,b.lat,count,2"), std::string::npos);
  EXPECT_NE(csv.find("histogram,c.dist,bucket3,1"), std::string::npos);
}

TEST(StatsIo, EmptyHistogramBucketsSkipped) {
  sim::StatsRegistry stats;
  stats.histogram("h", 8).sample(2);
  std::ostringstream out;
  write_stats_csv(stats, out);
  EXPECT_EQ(out.str().find("bucket1,"), std::string::npos);
}

TEST(StatsIo, ResultRowMatchesHeaderArity) {
  RunResult r;
  r.workload = "vacation";
  r.scheme = Scheme::kPuno;
  r.commits = 10;
  std::ostringstream out;
  write_result_csv(r, out);
  const std::string row = out.str();
  const auto commas = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(commas(row), commas(result_csv_header()))
      << "row and header must have the same number of columns";
  EXPECT_EQ(row.find("vacation,PUNO,"), 0u);
}

TEST(StatsIo, SweepCsvHasHeaderAndOneRowPerResult) {
  std::vector<RunResult> results(3);
  results[0].workload = "a";
  results[1].workload = "b";
  results[2].workload = "c";
  std::ostringstream out;
  write_results_csv(results, out);
  const std::string csv = out.str();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
  EXPECT_EQ(csv.find("workload,"), 0u);
}

TEST(StatsIoJsonl, RoundTripPreservesEveryField) {
  RunResult r;
  r.workload = "yada";
  r.scheme = Scheme::kRmwPred;
  r.completed = true;
  r.cycles = 987654321;
  r.commits = 1024;
  r.aborts = 33;
  r.aborts_by_getx = 20;
  r.aborts_by_gets = 13;
  r.aborts_overflow = 2;
  r.tx_getx_issued = 5000;
  r.tx_getx_nacked = 40;
  r.request_retries = 55;
  r.retries_per_contended_acquire = 2.625;  // exact in binary
  r.false_abort_events = 11;
  r.falsely_aborted_txns = 9;
  r.false_abort_multiplicity = {0.5, 0.25, 0.125, 0.125};
  r.router_traversals = 777777;
  r.dir_blocked_mean = 0.1;  // NOT exact in binary: %.17g must round-trip it
  r.dir_txgetx_services = 4321;
  r.good_cycles = 900000;
  r.discarded_cycles = 87654;
  r.unicast_forwards = 66;
  r.mp_feedbacks = 7;
  r.notified_backoffs = 88;
  r.commit_hints_sent = 4;
  r.hint_wakeups = 2;

  std::ostringstream out;
  write_result_jsonl(r, out);
  const std::string line = out.str();
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);

  RunResult back;
  ASSERT_TRUE(read_result_jsonl(line, back));
  EXPECT_EQ(back.workload, r.workload);
  EXPECT_EQ(back.scheme, r.scheme);
  EXPECT_EQ(back.completed, r.completed);
  EXPECT_EQ(back.cycles, r.cycles);
  EXPECT_EQ(back.commits, r.commits);
  EXPECT_EQ(back.aborts, r.aborts);
  EXPECT_EQ(back.aborts_by_getx, r.aborts_by_getx);
  EXPECT_EQ(back.aborts_by_gets, r.aborts_by_gets);
  EXPECT_EQ(back.aborts_overflow, r.aborts_overflow);
  EXPECT_EQ(back.tx_getx_issued, r.tx_getx_issued);
  EXPECT_EQ(back.tx_getx_nacked, r.tx_getx_nacked);
  EXPECT_EQ(back.request_retries, r.request_retries);
  EXPECT_EQ(back.retries_per_contended_acquire,
            r.retries_per_contended_acquire);
  EXPECT_EQ(back.false_abort_events, r.false_abort_events);
  EXPECT_EQ(back.falsely_aborted_txns, r.falsely_aborted_txns);
  EXPECT_EQ(back.false_abort_multiplicity, r.false_abort_multiplicity);
  EXPECT_EQ(back.router_traversals, r.router_traversals);
  EXPECT_EQ(back.dir_blocked_mean, r.dir_blocked_mean);
  EXPECT_EQ(back.dir_txgetx_services, r.dir_txgetx_services);
  EXPECT_EQ(back.good_cycles, r.good_cycles);
  EXPECT_EQ(back.discarded_cycles, r.discarded_cycles);
  EXPECT_EQ(back.unicast_forwards, r.unicast_forwards);
  EXPECT_EQ(back.mp_feedbacks, r.mp_feedbacks);
  EXPECT_EQ(back.notified_backoffs, r.notified_backoffs);
  EXPECT_EQ(back.commit_hints_sent, r.commit_hints_sent);
  EXPECT_EQ(back.hint_wakeups, r.hint_wakeups);
}

TEST(StatsIoJsonl, TraceKeysAreConditionalAndRoundTrip) {
  // Untraced rows must stay byte-identical to the pre-tracing schema.
  RunResult plain;
  plain.workload = "kmeans";
  std::ostringstream out_plain;
  write_result_jsonl(plain, out_plain);
  EXPECT_EQ(out_plain.str().find("trace_"), std::string::npos);

  RunResult traced = plain;
  traced.trace_path = "traces/kmeans.trace.json";
  traced.trace_events = 4096;
  traced.trace_dropped = 17;
  std::ostringstream out_traced;
  write_result_jsonl(traced, out_traced);
  RunResult back;
  ASSERT_TRUE(read_result_jsonl(out_traced.str(), back));
  EXPECT_EQ(back.trace_path, traced.trace_path);
  EXPECT_EQ(back.trace_events, traced.trace_events);
  EXPECT_EQ(back.trace_dropped, traced.trace_dropped);
}

TEST(StatsIoJsonl, EscapesAndRestoresSpecialCharacters) {
  RunResult r;
  r.workload = "odd \"name\"\twith\nnewline\\slash";
  std::ostringstream out;
  write_result_jsonl(r, out);
  const std::string line = out.str();
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1)
      << "escaped newline must not split the JSONL line";
  RunResult back;
  ASSERT_TRUE(read_result_jsonl(line, back));
  EXPECT_EQ(back.workload, r.workload);
}

TEST(StatsIoJsonl, RejectsGarbage) {
  RunResult r;
  EXPECT_FALSE(read_result_jsonl("", r));
  EXPECT_FALSE(read_result_jsonl("not json", r));
  EXPECT_FALSE(read_result_jsonl("{\"workload\":}", r));
  EXPECT_FALSE(read_result_jsonl("{\"cycles\":1} trailing", r));
  EXPECT_FALSE(read_result_jsonl("{\"workload\":\"unterminated", r));

  // The message quotes the offending token.
  std::string err;
  EXPECT_FALSE(read_result_jsonl("{\"cycles\":oops,\"aborts\":1}", r, &err));
  EXPECT_EQ(err, "bad value for \"cycles\" near 'oops,\"aborts\":1}'");
  EXPECT_FALSE(read_result_jsonl("{\"cycles\":-1}", r, &err));
  EXPECT_EQ(err, "bad value for \"cycles\" near '-1}'");
  EXPECT_FALSE(read_result_jsonl("{\"cycles\":1} trailing", r, &err));
  EXPECT_EQ(err, "trailing garbage near 'trailing'");
}

TEST(StatsIoJsonl, IgnoresUnknownKeysForForwardCompat) {
  RunResult r;
  ASSERT_TRUE(read_result_jsonl(
      R"({"workload":"x","future_field":123,"future_list":[1,2],"cycles":9})",
      r));
  EXPECT_EQ(r.workload, "x");
  EXPECT_EQ(r.cycles, 9u);
}

TEST(StatsIoJsonl, OneLinePerResult) {
  std::vector<RunResult> results(3);
  results[0].workload = "a";
  results[1].workload = "b";
  results[2].workload = "c";
  std::ostringstream out;
  write_results_jsonl(results, out);
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);

  std::istringstream in(text);
  std::string line;
  std::size_t i = 0;
  while (std::getline(in, line)) {
    RunResult back;
    ASSERT_TRUE(read_result_jsonl(line, back));
    EXPECT_EQ(back.workload, results[i].workload);
    ++i;
  }
  EXPECT_EQ(i, results.size());
}

}  // namespace
}  // namespace puno::metrics

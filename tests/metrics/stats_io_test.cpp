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
  r.trace_path = "traces/yada.trace.json";
  r.trace_events = 4096;
  r.trace_dropped = 17;
  r.telemetry_path = "telemetry/yada.telemetry.jsonl";
  r.telemetry_samples = 42;
  r.telemetry_dropped = 3;
  r.offered_txns = 640;
  r.dropped_txns = 12;
  r.queue_delay_p50 = 5;
  r.queue_delay_p90 = 40;
  r.queue_delay_p99 = 300;

  std::ostringstream out;
  write_result_jsonl(r, out);
  const std::string line = out.str();
  // The whole row, pinned: a key that leaves for_each_field, moves or
  // changes spelling fails here.
  EXPECT_EQ(
      line,
      R"({"workload":"yada","scheme":"RMW-Pred","completed":true,)"
      R"("cycles":987654321,"commits":1024,"aborts":33,"aborts_by_getx":20,)"
      R"("aborts_by_gets":13,"aborts_overflow":2,"tx_getx_issued":5000,)"
      R"("tx_getx_nacked":40,"request_retries":55,)"
      R"("retries_per_contended_acquire":2.625,"false_abort_events":11,)"
      R"("falsely_aborted_txns":9,)"
      R"("false_abort_multiplicity":[0.5,0.25,0.125,0.125],)"
      R"("router_traversals":777777,"dir_blocked_mean":0.10000000000000001,)"
      R"("dir_txgetx_services":4321,"good_cycles":900000,)"
      R"("discarded_cycles":87654,"unicast_forwards":66,"mp_feedbacks":7,)"
      R"("notified_backoffs":88,"commit_hints_sent":4,"hint_wakeups":2,)"
      R"("trace_path":"traces/yada.trace.json","trace_events":4096,)"
      R"("trace_dropped":17,"telemetry_path":"telemetry/yada.telemetry.jsonl",)"
      R"("telemetry_samples":42,"telemetry_dropped":3,"offered_txns":640,)"
      R"("dropped_txns":12,"queue_delay_p50":5,"queue_delay_p90":40,)"
      R"("queue_delay_p99":300})"
      "\n");

  RunResult back;
  ASSERT_TRUE(read_result_jsonl(line, back));
  EXPECT_EQ(back, r);
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

// Telemetry serialization contracts: JSONL round trips exactly, the reader
// tolerates schema growth, and both writers are byte-deterministic.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/series.hpp"

namespace puno::telemetry {
namespace {

TelemetrySample make_sample() {
  TelemetrySample s;
  s.cycle = 2000;
  s.window = 500;
  s.cores_in_txn = 5;
  s.cores_aborting = 2;
  s.read_set_blocks = 37;
  s.write_set_blocks = 12;
  s.core_state = {0, 1, 1, 2, 0, 1, 1, 2};
  s.commits = 11;
  s.aborts = 4;
  s.false_aborts = 1;
  s.notified_backoffs = 3;
  s.nacks = 9;
  s.dir_busy = 6;
  s.dir_entries = 420;
  s.txgetx_services = 17;
  s.unicasts = 8;
  s.multicasts = 2;
  s.mp_feedbacks = 1;
  s.pbuffer_usable = 14;
  s.txlb_entries = 5;
  s.flits_sent = 812;
  s.flits_ejected = 790;
  s.traversals = 2301;
  s.noc_buffered = 23;
  s.noc_inflight = 7;
  s.router_traversals = {100, 200, 300, 400, 500, 600, 101, 100};
  return s;
}

TEST(TelemetryExport, SampleRoundTripsExactly) {
  const TelemetrySample s = make_sample();
  std::ostringstream os;
  write_sample_jsonl(s, os);
  const std::string line = os.str();
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');

  TelemetrySample back;
  ASSERT_TRUE(read_sample_jsonl(line, back));
  EXPECT_EQ(back, s);
}

TEST(TelemetryExport, SeriesRoundTripsExactly) {
  std::vector<TelemetrySample> series;
  for (int i = 1; i <= 4; ++i) {
    TelemetrySample s = make_sample();
    s.cycle = static_cast<Cycle>(500 * i);
    s.commits = static_cast<std::uint64_t>(i);
    series.push_back(s);
  }
  std::ostringstream os;
  write_telemetry_jsonl(series, os);

  std::vector<TelemetrySample> back;
  ASSERT_TRUE(read_telemetry_jsonl(os.str(), back));
  EXPECT_EQ(back, series);
}

TEST(TelemetryExport, WriterIsByteDeterministic) {
  const TelemetrySample s = make_sample();
  std::ostringstream a, b;
  write_sample_jsonl(s, a);
  write_sample_jsonl(s, b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(TelemetryExport, ReaderSkipsUnknownKeys) {
  const TelemetrySample s = make_sample();
  std::ostringstream os;
  write_sample_jsonl(s, os);
  std::string line = os.str();
  // Splice a future-schema key into the object.
  const std::size_t brace = line.find('{');
  ASSERT_NE(brace, std::string::npos);
  line.insert(brace + 1, "\"future_key\":[1,2,3],\"future_flag\":true,");

  TelemetrySample back;
  ASSERT_TRUE(read_sample_jsonl(line, back));
  EXPECT_EQ(back, s);
}

TEST(TelemetryExport, ReaderRejectsMalformedInput) {
  TelemetrySample out;
  EXPECT_FALSE(read_sample_jsonl("", out));
  EXPECT_FALSE(read_sample_jsonl("not json", out));
  EXPECT_FALSE(read_sample_jsonl("{\"cycle\":", out));
  std::vector<TelemetrySample> series;
  EXPECT_FALSE(read_telemetry_jsonl("{\"cycle\":1}\ngarbage\n", series));

  // The message quotes the offending token; the series reader adds the
  // 1-based line number.
  std::string err;
  EXPECT_FALSE(read_sample_jsonl("{\"cycle\":", out, &err));
  EXPECT_EQ(err, "bad value for \"cycle\" near '<end of input>'");
  EXPECT_FALSE(read_telemetry_jsonl("{\"cycle\":1}\n\n{\"nacks\":[1]}\n",
                                    series, &err));
  EXPECT_EQ(err, "line 3: bad value for \"nacks\" near '[1]}'");

  // The u32 gauges reject a value past 2^32-1 instead of wrapping it.
  EXPECT_FALSE(read_sample_jsonl(R"({"cores_in_txn":4294967296,"cycle":1})",
                                 out, &err));
  EXPECT_EQ(err,
            R"(bad value for "cores_in_txn" near '4294967296,"cycle":1}')");
  EXPECT_FALSE(read_sample_jsonl("{\"cores_aborting\":4294967296}", out));
  ASSERT_TRUE(read_sample_jsonl("{\"cores_aborting\":4294967295}", out));
  EXPECT_EQ(out.cores_aborting, 4294967295u);
}

TEST(TelemetryExport, ReaderIgnoresBlankLines) {
  const TelemetrySample s = make_sample();
  std::ostringstream os;
  write_sample_jsonl(s, os);
  const std::string text = std::string("\n").append(os.str()).append("\n\n");
  std::vector<TelemetrySample> back;
  ASSERT_TRUE(read_telemetry_jsonl(text, back));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0], s);
}

TEST(TelemetryExport, CsvHeaderFlattensPerNodeColumns) {
  const std::string header = telemetry_csv_header(4);
  EXPECT_NE(header.find("cycle"), std::string::npos);
  EXPECT_NE(header.find("core0"), std::string::npos);
  EXPECT_NE(header.find("core3"), std::string::npos);
  EXPECT_EQ(header.find("core4"), std::string::npos);
  EXPECT_NE(header.find("router0"), std::string::npos);
  EXPECT_NE(header.find("router3"), std::string::npos);
}

TEST(TelemetryExport, CsvRowPerSamplePlusHeader) {
  std::vector<TelemetrySample> series = {make_sample(), make_sample()};
  std::ostringstream os;
  write_telemetry_csv(series, 8, os);
  const std::string text = os.str();
  std::size_t lines = 0;
  for (const char c : text) lines += (c == '\n') ? 1 : 0;
  EXPECT_EQ(lines, 3u) << "header + one row per sample";
  EXPECT_EQ(text.rfind(telemetry_csv_header(8), 0), 0u)
      << "first line is the header";
}

}  // namespace
}  // namespace puno::telemetry

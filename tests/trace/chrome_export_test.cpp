// Chrome trace-event JSON exporter + structural validator tests, including
// the determinism (golden stability) contract.
#include "trace/chrome_export.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

namespace puno::trace {
namespace {

TraceMeta small_meta() {
  TraceMeta meta;
  meta.workload = "unit";
  meta.scheme = "Baseline";
  meta.seed = 7;
  meta.num_nodes = 2;
  meta.final_cycle = 100;
  return meta;
}

TraceEvent txn_begin(NodeId node, Cycle cycle, Timestamp ts,
                     std::uint64_t id) {
  TraceEvent e;
  e.kind = EventKind::kTxnBegin;
  e.node = node;
  e.cycle = cycle;
  e.ts = ts;
  e.a = id;
  return e;
}

TraceEvent txn_commit(NodeId node, Cycle cycle, Timestamp ts,
                      std::uint64_t id, std::uint64_t len) {
  TraceEvent e;
  e.kind = EventKind::kTxnCommit;
  e.node = node;
  e.cycle = cycle;
  e.ts = ts;
  e.a = id;
  e.b = len;
  return e;
}

std::string export_to_string(const TraceRecorder& rec, const TraceMeta& m) {
  std::ostringstream os;
  write_chrome_trace(rec, m, os);
  return os.str();
}

std::optional<ChromeTraceCheck> validate_string(const std::string& json,
                                                std::string* err = nullptr) {
  std::istringstream is(json);
  return validate_chrome_trace(is, err);
}

TEST(ChromeExport, EmptyRecorderStillValidates) {
  TraceRecorder rec(8);
  const std::string json = export_to_string(rec, small_meta());
  const auto check = validate_string(json);
  ASSERT_TRUE(check.has_value());
  // Metadata only: process + thread naming for 3 pids x num_nodes tids.
  EXPECT_GT(check->metadata, 0u);
  EXPECT_EQ(check->complete, 0u);
  EXPECT_EQ(check->instants, 0u);
}

TEST(ChromeExport, BeginCommitBecomesOneCompleteSpan) {
  TraceRecorder rec(8);
  rec.record(txn_begin(0, 10, 5, 1));
  rec.record(txn_commit(0, 30, 5, 1, 20));
  const std::string json = export_to_string(rec, small_meta());
  const auto check = validate_string(json);
  ASSERT_TRUE(check.has_value());
  EXPECT_EQ(check->complete, 1u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"commit\""), std::string::npos);
}

TEST(ChromeExport, CommitWithoutBeginBecomesInstant) {
  // A wrapped ring can retain a commit whose begin was overwritten; the
  // exporter must degrade it to an instant, not emit a broken span.
  TraceRecorder rec(8);
  rec.record(txn_commit(1, 30, 5, 1, 20));
  const auto check = validate_string(export_to_string(rec, small_meta()));
  ASSERT_TRUE(check.has_value());
  EXPECT_EQ(check->complete, 0u);
  EXPECT_EQ(check->instants, 1u);
}

TEST(ChromeExport, OpenTxnAtExportIsClosedAtFinalCycle) {
  TraceRecorder rec(8);
  rec.record(txn_begin(0, 10, 5, 1));
  const std::string json = export_to_string(rec, small_meta());
  const auto check = validate_string(json);
  ASSERT_TRUE(check.has_value());
  EXPECT_EQ(check->complete, 1u);
  EXPECT_NE(json.find("\"outcome\":\"open\""), std::string::npos);
}

TEST(ChromeExport, OutputIsByteIdenticalAcrossExports) {
  // The determinism contract (docs/TRACING.md): no wall clock, hostname or
  // environment leaks into the bytes.
  TraceRecorder rec(16);
  rec.record(txn_begin(0, 10, 5, 1));
  rec.record(txn_commit(0, 30, 5, 1, 20));
  TraceEvent nack;
  nack.kind = EventKind::kNackSent;
  nack.node = 1;
  nack.peer = 0;
  nack.addr = 0x1c0;
  nack.cycle = 15;
  nack.flags = 1;
  rec.record(nack);
  const TraceMeta meta = small_meta();
  EXPECT_EQ(export_to_string(rec, meta), export_to_string(rec, meta));
}

TEST(ChromeExport, FileRoundTrip) {
  TraceRecorder rec(8);
  rec.record(txn_begin(0, 1, 2, 3));
  const std::string path =
      testing::TempDir() + "/chrome_export_roundtrip.trace.json";
  ASSERT_TRUE(write_chrome_trace_file(rec, small_meta(), path));
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  EXPECT_TRUE(validate_chrome_trace(in).has_value());
}

TEST(ChromeExport, EveryInstantKindValidates) {
  TraceRecorder rec(64);
  for (int k = 0; k <= static_cast<int>(EventKind::kFlitEject); ++k) {
    TraceEvent e;
    e.kind = static_cast<EventKind>(k);
    e.node = 1;
    e.peer = 0;
    e.cycle = static_cast<Cycle>(10 + k);
    e.a = 2;
    e.b = 3;
    rec.record(e);
  }
  std::string err;
  const auto check = validate_string(export_to_string(rec, small_meta()),
                                     &err);
  ASSERT_TRUE(check.has_value()) << err;
}

TEST(ValidateChromeTrace, RejectsMalformedJson) {
  std::string err;
  EXPECT_FALSE(validate_string("{\"traceEvents\":[", &err).has_value());
  EXPECT_FALSE(err.empty());
}

TEST(ValidateChromeTrace, RejectsMissingTraceEvents) {
  EXPECT_FALSE(validate_string("{\"otherData\":{}}").has_value());
}

TEST(ValidateChromeTrace, RejectsEventWithoutPh) {
  EXPECT_FALSE(
      validate_string("{\"traceEvents\":[{\"name\":\"x\"}]}").has_value());
}

TEST(ValidateChromeTrace, RejectsTrailingGarbage) {
  EXPECT_FALSE(
      validate_string("{\"traceEvents\":[]} extra").has_value());
}

// Accept/reject verdicts on hand-written inputs. Each verdict also holds
// for the validator's earlier hand-rolled scanner, which pins that moving
// onto sim::jsonio made the check no looser.
TEST(ValidateChromeTrace, VerdictsOnHandWrittenInputs) {
  const auto ev = [](const std::string& members) {
    return "{\"traceEvents\":[{\"ph\":\"i\",\"name\":\"n\"," + members +
           "}]}";
  };
  const struct {
    std::string json;
    bool valid;
  } cases[] = {
      {ev("\"ts\":-"), false},
      {ev("\"ts\":1."), false},
      {ev("\"ts\":1e"), false},
      {ev("\"ts\":.5"), false},
      {ev("\"ts\":+5"), false},
      {ev("\"ts\":1-2"), false},
      {ev("\"ts\":nul"), false},
      {ev("\"ts\":tru"), false},
      {ev(R"("args":{"s":"a\x"})"), false},
      {ev(R"("args":{"s":"\u12g4"})"), false},
      {R"({"traceEvents":[{"ph":"i","name":"n",}]})", false},
      {R"({"traceEvents":[{"ph":"i","name":"n"},]})", false},
      {R"({"traceEvents":[],})", false},
      {R"({"traceEvents":[{"ph":5,"name":"n"}]})", false},
      {R"({"traceEvents":[{"ph":"i","name":null}]})", false},
      {R"({"traceEvents":[{"name":"n"}]})", false},
      {R"({"traceEvents":[{"ph":"i"}]})", false},
      {R"({"traceEvents":[1]})", false},
      {R"({"traceEvents":{}})", false},
      {R"({"otherData":{}})", false},
      {R"({"traceEvents":[]} x)", false},
      {R"([{"traceEvents":[]}])", false},
      {"", false},
      {R"({"traceEvents":[)", false},
      {ev("\"ts\":01"), true},
      {ev("\"ts\":1.5e+3"), true},
      {ev(R"("args":{"a":[1,{"b":null}],"c":{"d":[]}})"), true},
      {ev("\"ts\":-0.25E-2"), true},
      {R"( { "traceEvents" : [ {"name":"\"\\\/\b\f\n\r\t\u00e9",
             "ph":"X", "ok":true, "no":false} ] } )",
       true},
  };
  for (const auto& c : cases) {
    std::string err;
    EXPECT_EQ(validate_string(c.json, &err).has_value(), c.valid)
        << c.json << "\n" << err;
  }
}

TEST(ValidateChromeTrace, RejectionsQuoteTheOffendingToken) {
  std::string err;
  EXPECT_FALSE(validate_string(
                   R"({"traceEvents":[{"ph":"X","name":"n","ts":1.}]})", &err)
                   .has_value());
  EXPECT_EQ(err, "bad value for \"ts\" near '1.}]}'");
  EXPECT_FALSE(
      validate_string(R"({"traceEvents":[{"name":"n"}]})", &err).has_value());
  EXPECT_EQ(err, "traceEvents element missing \"ph\" near '{\"name\":\"n\"}]}'");
  EXPECT_FALSE(validate_string(R"({"otherData":{}})", &err).has_value());
  EXPECT_EQ(err, "no \"traceEvents\" array near '{\"otherData\":{}}'");
  EXPECT_FALSE(validate_string("{\"traceEvents\":[]}\n\nmore", &err)
                   .has_value());
  EXPECT_EQ(err, "trailing garbage near 'more'");
}

TEST(ValidateChromeTrace, AcceptsMinimalWellFormedFile) {
  const auto check = validate_string(
      "{\"traceEvents\":[{\"name\":\"n\",\"ph\":\"i\",\"ts\":0}]}");
  ASSERT_TRUE(check.has_value());
  EXPECT_EQ(check->events, 1u);
  EXPECT_EQ(check->instants, 1u);
}

}  // namespace
}  // namespace puno::trace

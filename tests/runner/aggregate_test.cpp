// Fleet-aggregation contracts (tools/punoagg's library layer):
//
//   1. Manifest/aggregate JSONL parse + exact round-trip; malformed lines
//      are rejected with the offending token quoted (the trace-parser error
//      convention).
//   2. The aggregate is deterministic: byte-identical however many worker
//      threads ran the sweep, however the manifest rows were ordered.
//   3. publish_aggregate merges append-safely (existing keys survive, fresh
//      rows win) and leaves no temp droppings behind.
//   4. The fleet dashboard is self-contained and escapes its inputs.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/stats_io.hpp"
#include "runner/aggregate.hpp"
#include "runner/grid.hpp"
#include "runner/runner.hpp"
#include "sim/jsonio.hpp"

namespace puno::runner {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const char* tag)
      : path(fs::temp_directory_path() /
             (std::string("puno-aggregate-test-") + tag)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

void write_file(const fs::path& p, const std::string& text) {
  std::ofstream out(p, std::ios::trunc);
  out << text;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

AggregateRow sample_row(const std::string& key, const std::string& workload,
                        const std::string& scheme) {
  AggregateRow r;
  r.key = key;
  r.workload = workload;
  r.scheme = scheme;
  r.seed = 1;
  r.scale = 0.25;
  r.num_nodes = 8;
  r.mesh_width = 4;
  r.mesh_height = 2;
  r.status = "ok";
  r.cycles = 1000;
  r.has_result = true;
  r.commits = 42;
  r.aborts = 7;
  r.false_abort_events = 3;
  r.router_traversals = 900;
  r.heat_channel = "aborts";
  r.tile_heat = {1, 0, 2, 0, 1, 0, 2, 1};
  return r;
}

TEST(ManifestParse, ReadsEveryFieldAndSkipsUnknownKeys) {
  ManifestRow row;
  std::string err;
  ASSERT_TRUE(parse_manifest_row(
      R"({"index":3,"label":"a/b/s1","workload":"intruder","scheme":"PUNO",)"
      R"("seed":1,"scale":0.5,"max_cycles":1000,"num_nodes":256,)"
      R"("mesh_width":32,"mesh_height":8,"key":"v7-abc","status":"cached",)"
      R"("attempts":1,"wall_s":0.25,"cycles":900,"cycles_per_s":3600,)"
      R"("future_key":[1,2,3],"telemetry_path":"t.jsonl"})",
      row, &err))
      << err;
  EXPECT_EQ(row.index, 3u);
  EXPECT_EQ(row.workload, "intruder");
  EXPECT_EQ(row.num_nodes, 256u);
  EXPECT_EQ(row.mesh_width, 32u);
  EXPECT_EQ(row.mesh_height, 8u);
  EXPECT_EQ(row.status, "cached");
  EXPECT_EQ(row.telemetry_path, "t.jsonl");

  // A row with every field set survives the manifest writer's record.
  ManifestRow full;
  full.index = 7;
  full.label = "vacation/PUNO/s2";
  full.workload = "vacation";
  full.scheme = "PUNO";
  full.seed = 2;
  full.scale = 0.1;
  full.max_cycles = 500000;
  full.num_nodes = 8;
  full.mesh_width = 4;
  full.mesh_height = 2;
  full.key = "v8-0123456789abcdef";
  full.status = "failed";
  full.attempts = 2;
  full.wall_s = 0.115246242;
  full.cycles = 4321;
  full.cycles_per_s = 37493.1;
  full.overrides = "noc.vc_depth=8";
  full.trace_path = "traces/v.trace.json";
  full.trace_events = 4096;
  full.trace_dropped = 17;
  full.telemetry_path = "telemetry/v.telemetry.jsonl";
  full.telemetry_samples = 9;
  full.telemetry_dropped = 1;
  full.error = "watchdog: \"late\"";
  std::ostringstream os;
  sim::jsonio::write_record(os, full);
  ASSERT_TRUE(parse_manifest_row(os.str(), row, &err)) << err;
  EXPECT_EQ(row, full);
}

TEST(ManifestParse, QuotesTheOffendingToken) {
  ManifestRow row;
  std::string err;
  EXPECT_FALSE(parse_manifest_row(R"({"index":bogus123,"seed":1})", row,
                                  &err));
  EXPECT_NE(err.find("'bogus123"), std::string::npos)
      << "error must quote the offending token: " << err;

  EXPECT_FALSE(parse_manifest_row(R"({"index":1 "seed":2})", row, &err));
  EXPECT_NE(err.find("',' or '}'"), std::string::npos) << err;

  TempDir dir("badmanifest");
  write_file(dir.path / "runs.jsonl",
             "{\"index\":0,\"key\":\"k\"}\n{\"index\":oops}\n");
  try {
    (void)read_manifest_file(dir.path / "runs.jsonl");
    FAIL() << "malformed manifest must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("'oops"), std::string::npos)
        << e.what();
  }
}

TEST(AggregateRowIo, RoundTripsByteExactly) {
  const AggregateRow row = sample_row("v7-1", "intruder", "PUNO");
  std::ostringstream os;
  write_aggregate_row(row, os);
  AggregateRow parsed;
  std::string err;
  const std::string line = os.str().substr(0, os.str().size() - 1);
  ASSERT_TRUE(parse_aggregate_row(line, parsed, &err)) << err;
  std::ostringstream os2;
  write_aggregate_row(parsed, os2);
  EXPECT_EQ(os.str(), os2.str());
  EXPECT_EQ(parsed, row);

  // A failed row without metrics or heat keeps its conditional keys out.
  AggregateRow bare;
  bare.key = "v7-2";
  bare.workload = "vacation";
  bare.scheme = "Baseline";
  bare.status = "failed";
  std::ostringstream os3;
  write_aggregate_row(bare, os3);
  EXPECT_EQ(os3.str().find("commits"), std::string::npos);
  EXPECT_EQ(os3.str().find("tile_heat"), std::string::npos);
  ASSERT_TRUE(parse_aggregate_row(
      os3.str().substr(0, os3.str().size() - 1), parsed, &err));
  EXPECT_EQ(parsed, bare);
}

TEST(AggregatePublish, MergesByKeyAndLeavesNoTempFiles) {
  TempDir dir("publish");
  const fs::path agg = dir.path / "fleet.jsonl";
  std::string err;

  ASSERT_TRUE(publish_aggregate(
      agg, {sample_row("v7-a", "intruder", "PUNO"),
            sample_row("v7-b", "intruder", "Baseline")},
      &err))
      << err;
  const std::string first = read_file(agg);

  // Re-publishing one fresh row for an existing key plus one new key keeps
  // the untouched row and updates the re-keyed one.
  AggregateRow update = sample_row("v7-b", "intruder", "Baseline");
  update.commits = 99;
  ASSERT_TRUE(publish_aggregate(
      agg, {update, sample_row("v7-c", "vacation", "PUNO")}, &err))
      << err;
  const std::string merged = read_file(agg);
  EXPECT_NE(merged.find("\"commits\":99"), std::string::npos);
  EXPECT_NE(merged.find("v7-a"), std::string::npos)
      << "previously published rows survive a merge";
  EXPECT_NE(merged.find("v7-c"), std::string::npos);
  EXPECT_NE(merged, first);

  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u) << "atomic publish must not leave temp files";

  // Publishing the same rows again is idempotent, byte for byte.
  ASSERT_TRUE(publish_aggregate(agg, {update}, &err));
  EXPECT_EQ(read_file(agg), merged);
}

TEST(AggregateSort, OrderIsIndependentOfInputOrder) {
  std::vector<AggregateRow> a = {sample_row("v7-1", "vacation", "PUNO"),
                                 sample_row("v7-2", "intruder", "PUNO"),
                                 sample_row("v7-3", "intruder", "Baseline")};
  std::vector<AggregateRow> b = {a[2], a[0], a[1]};
  sort_aggregate(a);
  sort_aggregate(b);
  std::ostringstream oa, ob;
  for (const auto& r : a) write_aggregate_row(r, oa);
  for (const auto& r : b) write_aggregate_row(r, ob);
  EXPECT_EQ(oa.str(), ob.str());
}

/// Runs a small real sweep with the given worker count and aggregates it.
std::string aggregate_bytes(const fs::path& dir, unsigned jobs) {
  GridSpec grid;
  grid.workloads = {"kmeans"};
  grid.schemes = {Scheme::kBaseline, Scheme::kPuno};
  grid.seeds = {1, 2};
  grid.scale = 0.05;
  grid.max_cycles = 200'000;
  std::vector<JobSpec> specs = expand_grid(grid);

  RunnerOptions options;
  options.jobs = jobs;
  options.manifest_path = (dir / "runs.jsonl").string();
  const SweepResult sweep = run_jobs(specs, options);

  std::vector<metrics::RunResult> results;
  for (const JobOutcome& o : sweep.outcomes) results.push_back(o.result);
  {
    std::ofstream out(dir / "out.jsonl", std::ios::trunc);
    metrics::write_results_jsonl(results, out);
  }
  auto rows = aggregate_manifest(dir / "runs.jsonl", dir / "out.jsonl");
  sort_aggregate(rows);
  std::ostringstream os;
  for (const auto& r : rows) write_aggregate_row(r, os);
  return os.str();
}

TEST(AggregateDeterminism, ByteIdenticalAcrossWorkerCounts) {
  TempDir one("jobs1");
  TempDir eight("jobs8");
  const std::string a = aggregate_bytes(one.path, 1);
  const std::string b = aggregate_bytes(eight.path, 8);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "aggregate rows must not depend on scheduling";
}

TEST(FleetDashboard, SelfContainedAndEscaped) {
  AggregateRow weird = sample_row("v7-x", "w<script>", "PU&NO");
  AggregateRow failed = sample_row("v7-y", "w<script>", "Baseline");
  failed.status = "failed";
  failed.has_result = false;
  failed.tile_heat.clear();
  std::ostringstream os;
  write_fleet_dashboard({weird, failed}, os);
  const std::string page = os.str();
  EXPECT_NE(page.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(page.find("<meta charset=\"utf-8\">"), std::string::npos);
  EXPECT_EQ(page.find("http://"), std::string::npos);
  EXPECT_EQ(page.find("https://"), std::string::npos);
  EXPECT_EQ(page.find("<script>"), std::string::npos)
      << "workload strings must be HTML-escaped";
  EXPECT_NE(page.find("w&lt;script&gt;"), std::string::npos);
  EXPECT_NE(page.find("PU&amp;NO"), std::string::npos);
  EXPECT_NE(page.find("<svg"), std::string::npos)
      << "rows with heat data get a thumbnail";
  EXPECT_NE(page.find("failed"), std::string::npos);
}

}  // namespace
}  // namespace puno::runner

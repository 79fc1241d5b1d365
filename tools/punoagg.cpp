// punoagg: cross-run fleet aggregator (docs/RUNNER.md).
//
//   ./punoagg sweepA/runs.jsonl sweepB/runs.jsonl
//       --results sweepA/out.jsonl --results sweepB/out.jsonl
//       --aggregate fleet.jsonl --fleet fleet.html
//
// Walks one or more punobatch manifests, joins each with its result JSONL
// (k-th --results pairs with the k-th manifest) and per-job telemetry
// series, and emits the deterministic aggregate JSONL (merged append-safe
// into --aggregate via atomic temp + rename) and the self-contained fleet
// dashboard (--fleet). Exits 1 when --verify finds a non-canonical
// aggregate.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "runner/aggregate.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s MANIFEST... [options]\n"
      "  MANIFEST           punobatch --manifest JSONL (repeatable)\n"
      "  --results FILE     punobatch --jsonl results; the k-th --results\n"
      "                     joins the k-th MANIFEST (row metrics + heatmap\n"
      "                     data appear in the aggregate)\n"
      "  --aggregate FILE   merge the rows into FILE (append-safe: existing\n"
      "                     rows survive unless re-keyed; atomic publish)\n"
      "  --fleet FILE       write the fleet dashboard HTML\n"
      "  --verify           re-read --aggregate after publishing and check\n"
      "                     every row re-serializes byte-identically\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace puno;
  namespace fs = std::filesystem;

  std::vector<std::string> manifests, results;
  std::string aggregate_path, fleet_path;
  bool verify = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--results") {
      results.push_back(next());
    } else if (arg == "--aggregate") {
      aggregate_path = next();
    } else if (arg == "--fleet") {
      fleet_path = next();
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    } else {
      manifests.push_back(arg);
    }
  }
  if (manifests.empty()) {
    usage(argv[0]);
    return 2;
  }
  if (results.size() > manifests.size()) {
    std::fprintf(stderr, "punoagg: %zu --results for %zu manifests\n",
                 results.size(), manifests.size());
    return 2;
  }

  std::vector<runner::AggregateRow> rows;
  try {
    for (std::size_t i = 0; i < manifests.size(); ++i) {
      const fs::path res =
          i < results.size() ? fs::path(results[i]) : fs::path();
      auto batch = runner::aggregate_manifest(manifests[i], res);
      rows.insert(rows.end(), std::make_move_iterator(batch.begin()),
                  std::make_move_iterator(batch.end()));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "punoagg: %s\n", e.what());
    return 2;
  }
  // Later manifests win on a key collision, mirroring publish_aggregate.
  {
    std::map<std::string, std::size_t> by_key;
    std::vector<runner::AggregateRow> unique;
    for (auto& row : rows) {
      const auto it = by_key.find(row.key);
      if (it == by_key.end()) {
        by_key.emplace(row.key, unique.size());
        unique.push_back(std::move(row));
      } else {
        unique[it->second] = std::move(row);
      }
    }
    rows = std::move(unique);
  }
  runner::sort_aggregate(rows);
  std::printf("punoagg: %zu rows from %zu manifest%s\n", rows.size(),
              manifests.size(), manifests.size() == 1 ? "" : "s");

  if (!aggregate_path.empty()) {
    std::string err;
    if (!runner::publish_aggregate(aggregate_path, rows, &err)) {
      std::fprintf(stderr, "punoagg: %s\n", err.c_str());
      return 1;
    }
    // The fleet view below reflects the merged file, not just this batch.
    std::vector<runner::AggregateRow> merged;
    std::ifstream in(aggregate_path);
    std::string line;
    std::size_t lineno = 0;
    bool verify_ok = true;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.empty()) continue;
      runner::AggregateRow row;
      if (!runner::parse_aggregate_row(line, row, &err)) {
        std::fprintf(stderr, "punoagg: %s: line %zu: %s\n",
                     aggregate_path.c_str(), lineno, err.c_str());
        return 1;
      }
      if (verify) {
        std::ostringstream rt;
        runner::write_aggregate_row(row, rt);
        if (rt.str() != line + "\n") {
          std::fprintf(stderr,
                       "punoagg: verify: line %zu does not round-trip\n",
                       lineno);
          verify_ok = false;
        }
      }
      merged.push_back(std::move(row));
    }
    if (verify) {
      std::printf("verify               %zu rows round-trip: %s\n",
                  merged.size(), verify_ok ? "ok" : "FAILED");
      if (!verify_ok) return 1;
    }
    std::printf("aggregate            %zu rows -> %s\n", merged.size(),
                aggregate_path.c_str());
    rows = std::move(merged);
  }

  if (!fleet_path.empty()) {
    std::ofstream out(fleet_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "punoagg: cannot write '%s'\n",
                   fleet_path.c_str());
      return 1;
    }
    runner::write_fleet_dashboard(rows, out);
    std::printf("fleet dashboard      -> %s\n", fleet_path.c_str());
  }

  return 0;
}

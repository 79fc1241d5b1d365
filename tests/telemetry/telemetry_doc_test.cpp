// docs/TELEMETRY.md's per-tile table against the sample's one key list,
// for_each_field: every backticked first-column key must be a
// TelemetrySample key, and every tile_* key must have a row, so the table
// can neither name a key that does not exist nor miss a channel.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "telemetry/series.hpp"

#ifndef PUNO_DOCS_DIR
#error "telemetry_doc_test must be compiled with -DPUNO_DOCS_DIR=..."
#endif

namespace puno::telemetry {
namespace {

/// Collects every key for_each_field lists, optional groups included.
struct KeyNames {
  std::set<std::string> keys;

  [[nodiscard]] bool optional(bool) const { return true; }

  template <typename T>
  void operator()(const char* key, const T&) {
    keys.insert(key);
  }
};

TEST(TelemetryDoc, TileTableMatchesSampleKeys) {
  const std::filesystem::path path =
      std::filesystem::path(PUNO_DOCS_DIR) / "TELEMETRY.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing " << path;
  KeyNames names;
  const TelemetrySample sample;
  for_each_field(sample, names);

  // The table whose header row starts "| JSONL key |".
  std::set<std::string> rows;
  bool in_table = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| JSONL key |", 0) == 0) {
      in_table = true;
      continue;
    }
    if (!in_table || line.rfind("|---", 0) == 0) continue;
    if (line.rfind("| `", 0) != 0) break;
    const std::size_t close = line.find('`', 3);
    ASSERT_NE(close, std::string::npos) << line;
    const std::string key = line.substr(3, close - 3);
    EXPECT_EQ(names.keys.count(key), 1u)
        << "docs/TELEMETRY.md documents `" << key
        << "`, which is not a TelemetrySample key";
    rows.insert(key);
  }
  ASSERT_FALSE(rows.empty()) << "no \"| JSONL key |\" table in " << path;
  for (const std::string& key : names.keys) {
    if (key.rfind("tile_", 0) != 0) continue;
    EXPECT_EQ(rows.count(key), 1u)
        << "docs/TELEMETRY.md has no row for `" << key << "`";
  }
}

}  // namespace
}  // namespace puno::telemetry

// docs/CONFIG.md completeness: the reference table must name every
// overridable config knob and every run-key field, and nothing else.
//
// The doc is hand-written; these checks make it impossible to add a knob
// to the --set registry (runner::override_keys) or to the run key
// (runner::params_repr) without also documenting it, or to remove one and
// keep its row — the test fails with the key's name.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "metrics/experiment.hpp"
#include "runner/run_key.hpp"
#include "runner/grid.hpp"

#ifndef PUNO_DOCS_DIR
#error "config_doc_test must be compiled with -DPUNO_DOCS_DIR=..."
#endif

namespace puno::runner {
namespace {

[[nodiscard]] std::string read_config_doc() {
  const std::filesystem::path path =
      std::filesystem::path(PUNO_DOCS_DIR) / "CONFIG.md";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ConfigDoc, DocumentsEveryOverridableKey) {
  const std::string doc = read_config_doc();
  ASSERT_FALSE(doc.empty());
  for (const std::string& key : override_keys()) {
    EXPECT_NE(doc.find("`" + key + "`"), std::string::npos)
        << "docs/CONFIG.md is missing --set key `" << key << "`";
  }
}

TEST(ConfigDoc, DocumentsEveryCacheKeyField) {
  const std::string doc = read_config_doc();
  ASSERT_FALSE(doc.empty());
  // params_repr renders "name=value" tokens separated by spaces; every
  // field name participating in the run key must appear in the doc.
  const std::string repr = params_repr(metrics::ExperimentParams{});
  std::istringstream tokens(repr);
  std::string tok;
  while (tokens >> tok) {
    const std::size_t eq = tok.find('=');
    ASSERT_NE(eq, std::string::npos) << tok;
    const std::string name = tok.substr(0, eq);
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "docs/CONFIG.md is missing run-key field `" << name << "`";
  }
}

// The reverse direction: every backticked key in a table's first column
// must be a run-key field (an override key or an ExperimentParams
// field), so a removed knob cannot keep its row.
TEST(ConfigDoc, EveryDocumentedKeyExists) {
  const std::string doc = read_config_doc();
  ASSERT_FALSE(doc.empty());
  std::set<std::string> fields;
  std::istringstream tokens(params_repr(metrics::ExperimentParams{}));
  std::string tok;
  while (tokens >> tok) fields.insert(tok.substr(0, tok.find('=')));

  std::istringstream lines(doc);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("| `", 0) != 0) continue;
    const std::size_t close = line.find('`', 3);
    ASSERT_NE(close, std::string::npos) << line;
    const std::string key = line.substr(3, close - 3);
    ++rows;
    EXPECT_EQ(fields.count(key), 1u)
        << "docs/CONFIG.md documents `" << key
        << "`, which is neither a --set key nor an ExperimentParams field";
  }
  EXPECT_EQ(rows, fields.size()) << "one table row per run-key field";
}

}  // namespace
}  // namespace puno::runner

// Representation differential: at 16 nodes, a losslessly-configured coarse
// or limited sharer set must be bit-identical to the full bit-vector.
//
// kCoarse with coarse_region = 1 and kLimited with limited_pointers = 16
// represent every 16-node sharer set exactly, so the simulation must not
// be able to tell the representations apart: same cycle counts, same abort
// counts, same router traversals, for every seed. This is the cheap,
// always-on guarantee that an encoding changes behaviour only through the
// members it records — any divergence here means it leaked into the
// protocol some other way.
//
// The lossy settings are pinned separately, by recorded digests of short
// runs at 16, 64 and 256 tiles: a change to how the directory encodes,
// expands or rebuilds a lossy list moves at least one of them.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>

#include "arch/cmp.hpp"
#include "metrics/experiment.hpp"
#include "metrics/stats_io.hpp"
#include "runner/run_key.hpp"
#include "sim/config.hpp"

namespace puno {
namespace {

constexpr std::uint32_t kNumSeeds = 32;

/// 32-seed JSONL transcript, exactly the golden ResultJsonl recipe but with
/// a configurable sharer representation.
[[nodiscard]] std::string transcript(SharerRep rep) {
  static const char* kWorkloads[] = {"genome", "intruder", "kmeans", "ssca2"};
  std::ostringstream out;
  for (std::uint32_t seed = 1; seed <= kNumSeeds; ++seed) {
    metrics::ExperimentParams p;
    p.workload = kWorkloads[seed % 4];
    p.scheme = Scheme::kPuno;
    p.seed = seed;
    p.scale = 0.02;
    p.base_config.dir.sharer_rep = rep;
    p.base_config.dir.coarse_region = 1;        // lossless at any size
    p.base_config.dir.limited_pointers = 16;    // lossless at 16 nodes
    metrics::write_result_jsonl(metrics::run_experiment(p), out);
  }
  return out.str();
}

void expect_identical(const std::string& a, const std::string& b,
                      const char* what) {
  if (a == b) return;
  std::istringstream sa(a), sb(b);
  std::string la, lb;
  std::size_t line = 1;
  while (std::getline(sa, la) && std::getline(sb, lb)) {
    ASSERT_EQ(la, lb) << what << " diverges at line " << line;
    ++line;
  }
  FAIL() << what << " transcripts differ in length";
}

TEST(SharerRepDifferential, LosslessRepsAreBitIdenticalAt16Nodes) {
  const std::string full = transcript(SharerRep::kFull);
  expect_identical(full, transcript(SharerRep::kCoarse), "coarse(region=1)");
  expect_identical(full, transcript(SharerRep::kLimited),
                   "limited(pointers=16)");
}

/// One short run under a lossy sharer encoding and the FNV-1a digest of
/// its RunResult JSONL followed by its full stats CSV (punobench's per-job
/// digest recipe). `param` is coarse_region for kCoarse and
/// limited_pointers for kLimited.
struct LossyDigest {
  const char* workload;
  Scheme scheme;
  std::uint32_t width;  ///< width x width tiles
  SharerRep rep;
  std::uint32_t param;
  double scale;
  std::uint64_t digest;
};

constexpr Scheme kBase = Scheme::kBaseline;
constexpr Scheme kPuno = Scheme::kPuno;
constexpr SharerRep kCoarse = SharerRep::kCoarse;
constexpr SharerRep kLimited = SharerRep::kLimited;

// 16 tiles: five STAMP profiles x two schemes x {coarse 4, coarse 3 (does
// not divide 16), limited 2}; 64 tiles: the two most contended profiles
// under PUNO; 256 tiles: genome, both schemes.
constexpr LossyDigest kLossyDigests[] = {
    {"intruder", kBase, 4, kCoarse, 4, 0.05, 0x4bb6c29baea76f9bULL},
    {"intruder", kBase, 4, kCoarse, 3, 0.05, 0x1dfe17646e65f942ULL},
    {"intruder", kBase, 4, kLimited, 2, 0.05, 0x40bb4d9b3ed7f831ULL},
    {"intruder", kPuno, 4, kCoarse, 4, 0.05, 0xfc58557958ae742cULL},
    {"intruder", kPuno, 4, kCoarse, 3, 0.05, 0xf8232856e20073e9ULL},
    {"intruder", kPuno, 4, kLimited, 2, 0.05, 0x51bf99c39f707886ULL},
    {"genome", kBase, 4, kCoarse, 4, 0.05, 0xc7ec8398753ec33eULL},
    {"genome", kBase, 4, kCoarse, 3, 0.05, 0x209ce5cee4ee0f09ULL},
    {"genome", kBase, 4, kLimited, 2, 0.05, 0x8c41db8b1f4b6baaULL},
    {"genome", kPuno, 4, kCoarse, 4, 0.05, 0x9dea4bca56503487ULL},
    {"genome", kPuno, 4, kCoarse, 3, 0.05, 0xd38e8e7dea4a47cdULL},
    {"genome", kPuno, 4, kLimited, 2, 0.05, 0x6a99f781cef2246dULL},
    {"kmeans", kBase, 4, kCoarse, 4, 0.05, 0x92c377e2498c14cbULL},
    {"kmeans", kBase, 4, kCoarse, 3, 0.05, 0xb4d3c438b2ef0c46ULL},
    {"kmeans", kBase, 4, kLimited, 2, 0.05, 0x13c14c199319ae6fULL},
    {"kmeans", kPuno, 4, kCoarse, 4, 0.05, 0x26fa37da705a79caULL},
    {"kmeans", kPuno, 4, kCoarse, 3, 0.05, 0x86f91e719dc7b5c7ULL},
    {"kmeans", kPuno, 4, kLimited, 2, 0.05, 0x88835dd084698ff6ULL},
    {"ssca2", kBase, 4, kCoarse, 4, 0.05, 0x313bec5a896371d0ULL},
    {"ssca2", kBase, 4, kCoarse, 3, 0.05, 0x4d1e0641277cd9e7ULL},
    {"ssca2", kBase, 4, kLimited, 2, 0.05, 0x5547e3edfa4db63cULL},
    {"ssca2", kPuno, 4, kCoarse, 4, 0.05, 0xc51103dc4100265dULL},
    {"ssca2", kPuno, 4, kCoarse, 3, 0.05, 0x08a4bbf00893750aULL},
    {"ssca2", kPuno, 4, kLimited, 2, 0.05, 0x25ce3c979df4552cULL},
    {"vacation", kBase, 4, kCoarse, 4, 0.05, 0x360938574630777dULL},
    {"vacation", kBase, 4, kCoarse, 3, 0.05, 0x55967047edb032ceULL},
    {"vacation", kBase, 4, kLimited, 2, 0.05, 0xa756b497f2f1878dULL},
    {"vacation", kPuno, 4, kCoarse, 4, 0.05, 0x143e9dfa544a1011ULL},
    {"vacation", kPuno, 4, kCoarse, 3, 0.05, 0x112edebf0c40acd2ULL},
    {"vacation", kPuno, 4, kLimited, 2, 0.05, 0x06e5ba75628a3617ULL},
    {"intruder", kPuno, 8, kCoarse, 4, 0.02, 0x7e5664753da72928ULL},
    {"intruder", kPuno, 8, kLimited, 4, 0.02, 0x7a6efb7b82f777aaULL},
    {"genome", kPuno, 8, kCoarse, 4, 0.02, 0xf00f3b9e4cdf665bULL},
    {"genome", kPuno, 8, kLimited, 4, 0.02, 0xf1b9a08674c54ca9ULL},
    {"genome", kBase, 16, kLimited, 4, 0.02, 0xc81dc06612c49faeULL},
    {"genome", kBase, 16, kCoarse, 16, 0.02, 0x7b669784e1f5c8f8ULL},
    {"genome", kPuno, 16, kLimited, 4, 0.02, 0x6c69189c668b2267ULL},
    {"genome", kPuno, 16, kCoarse, 16, 0.02, 0x1576eb391a8a8d8aULL},
};

[[nodiscard]] std::uint64_t lossy_digest(const LossyDigest& row) {
  metrics::ExperimentParams p;
  p.workload = row.workload;
  p.scheme = row.scheme;
  p.seed = 1;
  p.scale = row.scale;
  SystemConfig& cfg = p.base_config;
  cfg.num_nodes = row.width * row.width;
  cfg.noc.mesh_width = row.width;
  cfg.dir.sharer_rep = row.rep;
  if (row.rep == SharerRep::kCoarse) {
    cfg.dir.coarse_region = row.param;
  } else {
    cfg.dir.limited_pointers = row.param;
  }
  metrics::Experiment exp(p);
  std::ostringstream out;
  metrics::write_result_jsonl(exp.run(), out);
  metrics::write_stats_csv(exp.cmp().kernel().stats(), out);
  return runner::fnv1a64(out.str());
}

TEST(SharerRepDifferential, LossyRepsMatchRecordedDigests) {
  for (const LossyDigest& row : kLossyDigests) {
    const std::uint64_t got = lossy_digest(row);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "{\"%s\", %s, %u, %s, %u, %.2f, 0x%016" PRIx64 "ULL}",
                  row.workload, row.scheme == kPuno ? "kPuno" : "kBase",
                  row.width, row.rep == kCoarse ? "kCoarse" : "kLimited",
                  row.param, row.scale, got);
    EXPECT_EQ(got, row.digest) << "observed row: " << line;
  }
}

}  // namespace
}  // namespace puno

// File-backed replay of open-loop traffic recordings through
// workloads::TraceWorkload::open: one open file, a node's blocks in file
// order, and every malformed line rejected when the file is opened.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "traffic/engine.hpp"
#include "workloads/trace.hpp"

namespace puno::traffic {
namespace {

using workloads::TraceWorkload;

[[nodiscard]] std::string write_temp(const std::string& text,
                                     const std::string& stem) {
  const std::filesystem::path p =
      std::filesystem::temp_directory_path() / (stem + ".trace");
  std::ofstream out(p, std::ios::trunc);
  out << text;
  return p.string();
}

/// A small open-loop workload (drain mode, 10 arrivals per node).
[[nodiscard]] OpenLoopWorkload traffic_source(NodeId nodes) {
  TrafficConfig cfg;
  cfg.arrivals_per_node = 10;
  cfg.keys = 128;
  return OpenLoopWorkload(KernelKind::kQueue, cfg, nodes, 13, 64);
}

/// Records traffic_source(nodes) to trace-v1 text.
[[nodiscard]] std::string record_traffic(NodeId nodes) {
  OpenLoopWorkload wl = traffic_source(nodes);
  std::ostringstream out;
  TraceWorkload::record(wl, nodes, out);
  return out.str();
}

void expect_same_desc(const workloads::TxnDesc& a,
                      const workloads::TxnDesc& b) {
  ASSERT_EQ(a.static_id, b.static_id);
  ASSERT_EQ(a.pre_think, b.pre_think);
  ASSERT_EQ(a.post_think, b.post_think);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t j = 0; j < a.ops.size(); ++j) {
    EXPECT_EQ(a.ops[j].addr, b.ops[j].addr);
    EXPECT_EQ(a.ops[j].is_store, b.ops[j].is_store);
    EXPECT_EQ(a.ops[j].pc, b.ops[j].pc);
    EXPECT_EQ(a.ops[j].pre_think, b.ops[j].pre_think);
  }
}

/// The message of the error opening `text` as a trace throws, or "".
[[nodiscard]] std::string open_error(const std::string& text,
                                     const std::string& stem) {
  const std::string path = write_temp(text, stem);
  std::string msg;
  try {
    (void)TraceWorkload::open(path, 1);
  } catch (const std::runtime_error& e) {
    msg = e.what();
  }
  std::filesystem::remove(path);
  return msg;
}

TEST(StreamTraceWorkload, MatchesMaterializedReplayDescriptorForDescriptor) {
  // The replay yields the recorded source's descriptors, node by node.
  constexpr NodeId kNodes = 4;
  const std::string path = write_temp(record_traffic(kNodes), "stream-equiv");
  OpenLoopWorkload source = traffic_source(kNodes);
  TraceWorkload replay = TraceWorkload::open(path, kNodes);

  for (NodeId n = 0; n < kNodes; ++n) {
    std::uint64_t replayed = 0;
    for (;;) {
      const auto a = source.next(n);
      const auto b = replay.next(n);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (!a) break;
      expect_same_desc(*a, *b);
      ++replayed;
    }
    EXPECT_EQ(replayed, 10u);
    EXPECT_EQ(replay.txns_for(n), 10u);
  }
  std::filesystem::remove(path);
}

TEST(StreamTraceWorkload, CursorsAdvanceIndependently) {
  constexpr NodeId kNodes = 3;
  const std::string path =
      write_temp(record_traffic(kNodes), "stream-cursors");
  TraceWorkload wl = TraceWorkload::open(path, kNodes);
  OpenLoopWorkload source = traffic_source(kNodes);

  // Drain node 2 completely before touching the others.
  int node2 = 0;
  while (wl.next(2).has_value()) ++node2;
  EXPECT_EQ(node2, 10);
  for (const NodeId n : {NodeId{0}, NodeId{1}}) {
    const auto a = source.next(n);
    const auto b = wl.next(n);
    ASSERT_TRUE(a.has_value() && b.has_value());
    expect_same_desc(*a, *b);  // still each node's first block
  }
  EXPECT_FALSE(wl.next(2).has_value());  // stays exhausted
  std::filesystem::remove(path);
}

TEST(StreamTraceWorkload, ThrowsOnMissingFile) {
  EXPECT_THROW((void)TraceWorkload::open("/nonexistent/nowhere.trace", 2),
               std::runtime_error);
}

TEST(StreamTraceWorkload, MalformedLinesNameTheOffendingToken) {
  const std::string msg = open_error(
      "trace-v1 bad\n"
      "txn 0 1 pre=0 post=0\n"
      "r banana pc=1 think=0\n"
      "end\n",
      "stream-badtoken");
  EXPECT_NE(msg.find("banana"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
}

TEST(StreamTraceWorkload, RejectsTruncatedBlocks) {
  const std::string msg = open_error(
      "trace-v1 truncated\n"
      "txn 0 1 pre=0 post=0\n"
      "r 64 pc=1 think=0\n",  // no `end`
      "stream-truncated");
  EXPECT_NE(msg.find("unterminated txn block"), std::string::npos) << msg;
}

TEST(StreamTraceWorkload, RejectsMissingHeader) {
  const std::string msg =
      open_error("txn 0 1 pre=0 post=0\nend\n", "stream-noheader");
  EXPECT_NE(msg.find("line 1: missing 'trace-v1' header"), std::string::npos)
      << msg;
}

}  // namespace
}  // namespace puno::traffic

#include "workloads/trace.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "workloads/stamp.hpp"

namespace puno::workloads {
namespace {

/// Replays `text` on a machine of `num_nodes` cores.
TraceWorkload load(const std::string& text, NodeId num_nodes = 2) {
  return TraceWorkload(std::make_unique<std::istringstream>(text), num_nodes);
}

constexpr const char* kTinyTrace = R"(# a minimal two-node trace
trace-v1 mini
txn 0 3 pre=10 post=20
r 64 pc=100 think=2
w 64 pc=101 think=3
end
txn 1 0 pre=0 post=0
r 128 pc=7 think=1
end
txn 0 3 pre=5 post=5
end
)";

TEST(TraceWorkload, ParsesMinimalTrace) {
  TraceWorkload w = load(kTinyTrace);
  EXPECT_EQ(w.name(), "mini");
  EXPECT_EQ(w.total_txns(), 3u);
  EXPECT_EQ(w.txns_for(0), 2u);
  EXPECT_EQ(w.txns_for(1), 1u);

  auto d = w.next(0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->static_id, 3u);
  EXPECT_EQ(d->pre_think, 10u);
  EXPECT_EQ(d->post_think, 20u);
  ASSERT_EQ(d->ops.size(), 2u);
  EXPECT_FALSE(d->ops[0].is_store);
  EXPECT_EQ(d->ops[0].addr, 64u);
  EXPECT_EQ(d->ops[0].pc, 100u);
  EXPECT_EQ(d->ops[0].pre_think, 2u);
  EXPECT_TRUE(d->ops[1].is_store);
}

TEST(TraceWorkload, StreamsExhaustIndependently) {
  TraceWorkload w = load(kTinyTrace);
  EXPECT_TRUE(w.next(1).has_value());
  EXPECT_FALSE(w.next(1).has_value());
  EXPECT_TRUE(w.next(0).has_value());
  EXPECT_TRUE(w.next(0).has_value());
  EXPECT_FALSE(w.next(0).has_value());
  EXPECT_FALSE(w.next(5).has_value()) << "unknown node has no stream";
}

TEST(TraceWorkload, EmptyTransactionAllowed) {
  TraceWorkload w = load(kTinyTrace);
  (void)w.next(0);
  auto d = w.next(0);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->ops.empty());
}

TEST(TraceWorkload, RejectsMalformedInput) {
  const auto expect_throw = [](const char* text) {
    EXPECT_THROW(load(text), std::runtime_error) << text;
  };
  expect_throw("");                                   // empty
  expect_throw("txn 0 0 pre=0 post=0\nend\n");        // missing header
  expect_throw("trace-v1 x\nr 64 pc=1 think=1\n");    // op outside txn
  expect_throw("trace-v1 x\ntxn 0 0 pre=0 post=0\n"); // unterminated
  expect_throw("trace-v1 x\ntxn 0 0 pre=0 post=0\ntxn 0 1 pre=0 post=0\n");
  expect_throw("trace-v1 x\ntxn 0 0 zzz=0 post=0\nend\n");  // bad kv
  expect_throw("trace-v1 x\nfrobnicate\n");           // unknown directive
}

TEST(TraceWorkload, RoundTripIsIdentical) {
  TraceWorkload w = load(kTinyTrace);
  std::ostringstream out;
  TraceWorkload::record(w, 2, out);
  TraceWorkload w2 = load(out.str());
  std::ostringstream out2;
  TraceWorkload::record(w2, 2, out2);
  EXPECT_EQ(out.str(), out2.str());
  EXPECT_EQ(out.str(),
            "trace-v1 mini\n"
            "txn 0 3 pre=10 post=20\nr 64 pc=100 think=2\nw 64 pc=101 think=3\n"
            "end\ntxn 0 3 pre=5 post=5\nend\n"
            "txn 1 0 pre=0 post=0\nr 128 pc=7 think=1\nend\n");
}

TEST(TraceWorkload, RecordsSyntheticWorkloadFaithfully) {
  auto source = stamp::make("kmeans", 4, 11, 0.05);
  std::ostringstream rec;
  TraceWorkload::record(*source, 4, rec);

  // Replaying the trace yields exactly the same descriptor sequence as a
  // fresh generator with the same seed.
  TraceWorkload replay = load(rec.str(), 4);
  auto fresh = stamp::make("kmeans", 4, 11, 0.05);
  for (NodeId n = 0; n < 4; ++n) {
    while (true) {
      auto a = fresh->next(n);
      auto b = replay.next(n);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (!a) break;
      ASSERT_EQ(a->static_id, b->static_id);
      ASSERT_EQ(a->pre_think, b->pre_think);
      ASSERT_EQ(a->post_think, b->post_think);
      ASSERT_EQ(a->ops.size(), b->ops.size());
      for (std::size_t i = 0; i < a->ops.size(); ++i) {
        EXPECT_EQ(a->ops[i].addr, b->ops[i].addr);
        EXPECT_EQ(a->ops[i].is_store, b->ops[i].is_store);
        EXPECT_EQ(a->ops[i].pc, b->ops[i].pc);
        EXPECT_EQ(a->ops[i].pre_think, b->ops[i].pre_think);
      }
    }
  }
}

TEST(TraceWorkload, RecordHonoursPerNodeCap) {
  auto source = stamp::make("kmeans", 2, 1, 1.0);
  std::ostringstream rec;
  TraceWorkload::record(*source, 2, rec, /*max_per_node=*/3);
  TraceWorkload w = load(rec.str());
  EXPECT_EQ(w.txns_for(0), 3u);
  EXPECT_EQ(w.txns_for(1), 3u);
}

TEST(TraceWorkload, ParseErrorsNameTheLineAndOffendingToken) {
  const auto message_of = [](const char* text) -> std::string {
    try {
      (void)load(text);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };

  // Non-numeric operand: the token itself must appear in the message.
  std::string msg =
      message_of("trace-v1 x\ntxn 0 1 pre=0 post=0\nr banana pc=1 think=0\nend\n");
  EXPECT_NE(msg.find("banana"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;

  // Wrong key in a key=value pair.
  msg = message_of("trace-v1 x\ntxn 0 1 zzz=0 post=0\nend\n");
  EXPECT_NE(msg.find("zzz=0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;

  // Unknown directive.
  msg = message_of("trace-v1 x\nfrobnicate 1 2\n");
  EXPECT_NE(msg.find("frobnicate"), std::string::npos) << msg;

  // Value with trailing garbage.
  msg = message_of("trace-v1 x\ntxn 0 1 pre=3x post=0\nend\n");
  EXPECT_NE(msg.find("pre=3x"), std::string::npos) << msg;

  // A token past the directive's last field, on every kind of line.
  struct Extra {
    const char* text;
    const char* token;
    const char* line;
  };
  for (const Extra& c : {
           Extra{"trace-v1 x\ntxn 0 1 pre=0 post=0 extra tokens\n"
                 "r 64 pc=1 think=0\nend\n",
                 "extra", "line 2"},
           Extra{"trace-v1 x\ntxn 0 1 pre=0 post=0\n"
                 "r 64 pc=1 think=0 more\nend\n",
                 "more", "line 3"},
           Extra{"trace-v1 x\ntxn 0 1 pre=0 post=0\n"
                 "r 64 pc=1 think=0\nend of block\n",
                 "of", "line 4"},
           Extra{"trace-v1 my name\ntxn 0 1 pre=0 post=0\n"
                 "r 64 pc=1 think=0\nend\n",
                 "name", "line 1"},
       }) {
    msg = message_of(c.text);
    EXPECT_NE(msg.find(std::string("unexpected token '") + c.token + "'"),
              std::string::npos)
        << c.text << " -> " << msg;
    EXPECT_NE(msg.find(c.line), std::string::npos) << msg;
  }

  // Each number is parsed into its own field type: a sign, or a value that
  // does not fit (it once wrapped: pre=-5 ran ~2^32 think cycles and node
  // 65537 replayed as node 1), is rejected with the token quoted.
  struct Case {
    const char* line2;
    const char* token;
  };
  for (const Case& c : {
           Case{"txn 0 1 pre=-5 post=0", "pre=-5"},
           Case{"txn 0 1 pre=+5 post=0", "pre=+5"},
           Case{"txn 0 1 pre=4294967301 post=0", "pre=4294967301"},
           Case{"txn 0 1 pre=0 post=4294967296", "post=4294967296"},
           Case{"txn 65537 1 pre=0 post=0", "65537"},
           Case{"txn -1 1 pre=0 post=0", "-1"},
           Case{"txn 0 4294967296 pre=0 post=0", "4294967296"},
       }) {
    msg = message_of(
        (std::string("trace-v1 x\n") + c.line2 + "\nr 64 pc=1 think=0\nend\n")
            .c_str());
    EXPECT_NE(msg.find(std::string("'") + c.token + "'"), std::string::npos)
        << c.line2 << " -> " << msg;
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  }
  for (const Case& c : {
           Case{"r 64 pc=1 think=4294967296", "think=4294967296"},
           Case{"r 64 pc=18446744073709551616 think=0",
                "pc=18446744073709551616"},
           Case{"r 18446744073709551616 pc=1 think=0", "18446744073709551616"},
           Case{"r -64 pc=1 think=0", "-64"},
       }) {
    msg = message_of(
        (std::string("trace-v1 x\ntxn 0 1 pre=0 post=0\n") + c.line2 +
         "\nend\n")
            .c_str());
    EXPECT_NE(msg.find(std::string("'") + c.token + "'"), std::string::npos)
        << c.line2 << " -> " << msg;
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  }

  // The widest values that fit still load.
  EXPECT_EQ(load("trace-v1 x\ntxn 0 4294967295 pre=4294967295 "
                 "post=4294967295\n"
                 "r 18446744073709551615 pc=18446744073709551615 "
                 "think=4294967295\nend\n")
                .total_txns(),
            1u);
}

TEST(TraceWorkload, RecordZeroCapDrainsTheSourceCompletely) {
  // max_per_node = 0 means unlimited: every descriptor the source yields is
  // written, so the replay matches an uncapped fresh generator node-for-node.
  auto source = stamp::make("kmeans", 2, 3, 0.05);
  std::ostringstream rec;
  TraceWorkload::record(*source, 2, rec, /*max_per_node=*/0);

  auto fresh = stamp::make("kmeans", 2, 3, 0.05);
  std::size_t expect0 = 0, expect1 = 0;
  while (fresh->next(0).has_value()) ++expect0;
  while (fresh->next(1).has_value()) ++expect1;
  ASSERT_GT(expect0, 0u);

  TraceWorkload w = load(rec.str());
  EXPECT_EQ(w.txns_for(0), expect0);
  EXPECT_EQ(w.txns_for(1), expect1);
}

TEST(TraceWorkload, CommentsAndBlankLinesIgnored) {
  TraceWorkload w = load(
      "trace-v1 c\n\n# full comment line\ntxn 0 1 pre=1 post=1 # trailing\n"
      "r 64 pc=1 think=1\nend\n");
  EXPECT_EQ(w.total_txns(), 1u);
}

TEST(TraceWorkload, RejectsNodesTheMachineDoesNotHave) {
  // kTinyTrace's line 7 holds node 1's block: a one-core machine has no
  // node 1, so the check fails there, quoting the node token.
  try {
    (void)load(kTinyTrace, 1);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("trace parse error at line 7"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("node '1'"), std::string::npos) << msg;
  }

  // A trace may use fewer nodes than the machine has: the others idle.
  TraceWorkload w = load(kTinyTrace, 16);
  EXPECT_EQ(w.total_txns(), 3u);
  EXPECT_FALSE(w.next(15).has_value());
  EXPECT_TRUE(w.next(1).has_value());
}

TEST(TraceWorkload, InterleavedTraceKeepsPerNodeFileOrder) {
  // Round-robin blocks for three nodes, static id = 10 * node + index:
  // each node's scan must pass over the other nodes' blocks, in whatever
  // order the nodes ask.
  std::string text = "trace-v1 rr\n";
  for (int k = 0; k < 4; ++k) {
    for (int n = 0; n < 3; ++n) {
      text += "txn " + std::to_string(n) + " " + std::to_string(10 * n + k) +
              " pre=0 post=0\n# between\nr " +
              std::to_string(64 * (10 * n + k)) + " pc=1 think=0\nend\n\n";
    }
  }
  TraceWorkload w = load(text, 3);
  EXPECT_EQ(w.txns_for(0), 4u);
  EXPECT_EQ(w.txns_for(2), 4u);
  int served[3] = {0, 0, 0};
  for (const NodeId n : {2, 2, 0, 1, 2, 1, 1, 0, 0, 2, 1, 0}) {
    const auto d = w.next(n);
    ASSERT_TRUE(d.has_value()) << "node " << n;
    EXPECT_EQ(d->static_id, 10u * n + static_cast<unsigned>(served[n]));
    ASSERT_EQ(d->ops.size(), 1u);
    EXPECT_EQ(d->ops[0].addr, 64u * d->static_id);
    ++served[n];
  }
  for (NodeId n = 0; n < 3; ++n) EXPECT_FALSE(w.next(n).has_value());
}

}  // namespace
}  // namespace puno::workloads

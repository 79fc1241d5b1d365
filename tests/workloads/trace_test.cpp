#include "workloads/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "workloads/stamp.hpp"

namespace puno::workloads {
namespace {

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
  std::istringstream in(kTinyTrace);
  TraceWorkload w = TraceWorkload::parse(in);
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
  std::istringstream in(kTinyTrace);
  TraceWorkload w = TraceWorkload::parse(in);
  EXPECT_TRUE(w.next(1).has_value());
  EXPECT_FALSE(w.next(1).has_value());
  EXPECT_TRUE(w.next(0).has_value());
  EXPECT_TRUE(w.next(0).has_value());
  EXPECT_FALSE(w.next(0).has_value());
  EXPECT_FALSE(w.next(5).has_value()) << "unknown node has no stream";
}

TEST(TraceWorkload, EmptyTransactionAllowed) {
  std::istringstream in(kTinyTrace);
  TraceWorkload w = TraceWorkload::parse(in);
  (void)w.next(0);
  auto d = w.next(0);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->ops.empty());
}

TEST(TraceWorkload, RejectsMalformedInput) {
  const auto expect_throw = [](const char* text) {
    std::istringstream in(text);
    EXPECT_THROW(TraceWorkload::parse(in), std::runtime_error) << text;
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
  std::istringstream in(kTinyTrace);
  TraceWorkload w = TraceWorkload::parse(in);
  std::ostringstream out;
  w.write(out);
  std::istringstream in2(out.str());
  TraceWorkload w2 = TraceWorkload::parse(in2);
  std::ostringstream out2;
  w2.write(out2);
  EXPECT_EQ(out.str(), out2.str());
}

TEST(TraceWorkload, RecordsSyntheticWorkloadFaithfully) {
  auto source = stamp::make("kmeans", 4, 11, 0.05);
  std::ostringstream rec;
  TraceWorkload::record(*source, 4, rec);

  // Replaying the trace yields exactly the same descriptor sequence as a
  // fresh generator with the same seed.
  std::istringstream in(rec.str());
  TraceWorkload replay = TraceWorkload::parse(in);
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
  std::istringstream in(rec.str());
  TraceWorkload w = TraceWorkload::parse(in);
  EXPECT_EQ(w.txns_for(0), 3u);
  EXPECT_EQ(w.txns_for(1), 3u);
}

TEST(TraceWorkload, ParseErrorsNameTheLineAndOffendingToken) {
  const auto message_of = [](const char* text) -> std::string {
    std::istringstream in(text);
    try {
      (void)TraceWorkload::parse(in);
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
  std::istringstream max_in(
      "trace-v1 x\ntxn 0 4294967295 pre=4294967295 post=4294967295\n"
      "r 18446744073709551615 pc=18446744073709551615 think=4294967295\n"
      "end\n");
  EXPECT_EQ(TraceWorkload::parse(max_in).total_txns(), 1u);
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

  std::istringstream in(rec.str());
  TraceWorkload w = TraceWorkload::parse(in);
  EXPECT_EQ(w.txns_for(0), expect0);
  EXPECT_EQ(w.txns_for(1), expect1);
}

TEST(TraceWorkload, CommentsAndBlankLinesIgnored) {
  std::istringstream in(
      "trace-v1 c\n\n# full comment line\ntxn 0 1 pre=1 post=1 # trailing\n"
      "r 64 pc=1 think=1\nend\n");
  TraceWorkload w = TraceWorkload::parse(in);
  EXPECT_EQ(w.total_txns(), 1u);
}

}  // namespace
}  // namespace puno::workloads

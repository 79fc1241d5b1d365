#include "coherence/message.hpp"

#include <gtest/gtest.h>

namespace puno::coherence {
namespace {

TEST(Message, VnetAssignmentByClass) {
  EXPECT_EQ(vnet_of(MsgType::kGetS), noc::VNet::kRequest);
  EXPECT_EQ(vnet_of(MsgType::kGetX), noc::VNet::kRequest);
  EXPECT_EQ(vnet_of(MsgType::kPutX), noc::VNet::kRequest);
  EXPECT_EQ(vnet_of(MsgType::kInv), noc::VNet::kForward);
  EXPECT_EQ(vnet_of(MsgType::kFwdGetS), noc::VNet::kForward);
  EXPECT_EQ(vnet_of(MsgType::kWbAck), noc::VNet::kForward);
  EXPECT_EQ(vnet_of(MsgType::kData), noc::VNet::kResponse);
  EXPECT_EQ(vnet_of(MsgType::kAck), noc::VNet::kResponse);
  EXPECT_EQ(vnet_of(MsgType::kNack), noc::VNet::kResponse);
  EXPECT_EQ(vnet_of(MsgType::kUnblock), noc::VNet::kResponse);
  EXPECT_EQ(vnet_of(MsgType::kWbData), noc::VNet::kResponse);
}

TEST(Message, OnlyDataMessagesCarryPayload) {
  EXPECT_TRUE(carries_data(MsgType::kData));
  EXPECT_TRUE(carries_data(MsgType::kWbData));
  EXPECT_TRUE(carries_data(MsgType::kPutX));
  EXPECT_FALSE(carries_data(MsgType::kGetS));
  EXPECT_FALSE(carries_data(MsgType::kInv));
  EXPECT_FALSE(carries_data(MsgType::kNack));
  EXPECT_FALSE(carries_data(MsgType::kUnblock));
}

TEST(Message, MakeInitializesRouting) {
  auto m = make_message(MsgType::kWbAck, 0x80, 3, 5);
  EXPECT_EQ(m->type, MsgType::kWbAck);
  EXPECT_EQ(m->addr, 0x80u);
  EXPECT_EQ(m->sender, 3);
  EXPECT_EQ(m->requester, 5);
}

TEST(Message, ForwardCopiesTheRequestsConflictFields) {
  const auto req = make_message(MsgType::kGetX, 0x80, 3, 3);
  req->transactional = true;
  req->ts = 42;
  req->avg_txn_len = 500;
  const auto fwd = forward_of(*req, MsgType::kInv, 7);
  EXPECT_EQ(fwd->type, MsgType::kInv);
  EXPECT_EQ(fwd->addr, 0x80u);
  EXPECT_EQ(fwd->sender, 7);
  EXPECT_EQ(fwd->requester, 3);
  EXPECT_TRUE(fwd->transactional);
  EXPECT_EQ(fwd->ts, 42u);
  EXPECT_EQ(fwd->avg_txn_len, 0u) << "only the conflict fields travel";

  const auto reply = reply_to(*fwd, MsgType::kNack, 5);
  EXPECT_EQ(reply->addr, 0x80u);
  EXPECT_EQ(reply->sender, 5);
  EXPECT_EQ(reply->requester, 3) << "a reply goes to the forward's requester";
  EXPECT_FALSE(reply->transactional);
}

TEST(Message, PunoExtensionDefaultsAreOff) {
  Message m;
  EXPECT_FALSE(m.u_bit);
  EXPECT_FALSE(m.mp_bit);
  EXPECT_EQ(m.mp_node, kInvalidNode);
  EXPECT_EQ(m.notification, 0u);
  EXPECT_FALSE(m.responder_aborted);
  EXPECT_TRUE(m.has_payload);
}

TEST(Message, NodeBit) {
  EXPECT_EQ(node_bit(0), 1ull);
  EXPECT_EQ(node_bit(5), 32ull);
  EXPECT_EQ(node_bit(63), 1ull << 63);
}

TEST(Message, TypeNames) {
  EXPECT_STREQ(to_string(MsgType::kGetS), "GetS");
  EXPECT_STREQ(to_string(MsgType::kUnblock), "Unblock");
  EXPECT_STREQ(to_string(MsgType::kWbStale), "WbStale");
}

}  // namespace
}  // namespace puno::coherence

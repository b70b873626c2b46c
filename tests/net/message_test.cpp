// encoded_size — the logical bytes the transport counts per send. Each pin
// is the byte length of the message's compact binary form, one test per
// kind; membership is pinned with and without the piggybacked supertopic
// table and with and without a history digest.
#include "net/message.hpp"

#include <gtest/gtest.h>

namespace dam::net {
namespace {

Message header(MsgKind kind) {
  Message msg;
  msg.kind = kind;
  msg.from = ProcessId{3};
  msg.to = ProcessId{9};
  return msg;
}

TEST(EncodedSize, Event) {
  Message msg = header(MsgKind::kEvent);
  msg.topic = TopicId{2};
  msg.event = EventId{ProcessId{3}, 17};
  msg.intergroup = true;
  EXPECT_EQ(encoded_size(msg), 34u);
  const std::uint8_t payload[] = {0x00, 0x01, 0xFE, 0xFF, 0x42};
  msg.payload = payload;
  EXPECT_EQ(encoded_size(msg), 39u);
}

TEST(EncodedSize, ReqContact) {
  Message msg = header(MsgKind::kReqContact);
  msg.origin = ProcessId{1};
  msg.request_id = 7;
  msg.ttl = 3;
  EXPECT_EQ(encoded_size(msg), 33u);
  const TopicId init_msg[] = {TopicId{4}, TopicId{2}, TopicId{0}};
  msg.init_msg = init_msg;
  EXPECT_EQ(encoded_size(msg), 45u);
}

TEST(EncodedSize, AnsContact) {
  Message msg = header(MsgKind::kAnsContact);
  msg.answer_topic = TopicId{4};
  const ProcessId processes[] = {ProcessId{8}, ProcessId{12}, ProcessId{30}};
  msg.processes = processes;
  EXPECT_EQ(encoded_size(msg), 37u);
}

TEST(EncodedSize, NewProcessAsk) {
  EXPECT_EQ(encoded_size(header(MsgKind::kNewProcessAsk)), 17u);
}

TEST(EncodedSize, NewProcessGive) {
  Message msg = header(MsgKind::kNewProcessGive);
  msg.answer_topic = TopicId{1};
  const ProcessId processes[] = {ProcessId{40}, ProcessId{41}};
  msg.processes = processes;
  EXPECT_EQ(encoded_size(msg), 33u);
}

TEST(EncodedSize, MembershipWithoutPiggyback) {
  Message msg = header(MsgKind::kMembership);
  msg.answer_topic = TopicId{6};
  const ProcessId processes[] = {ProcessId{1}};
  msg.processes = processes;
  EXPECT_EQ(encoded_size(msg), 34u);
  const EventId event_ids[] = {EventId{ProcessId{2}, 11},
                               EventId{ProcessId{4}, 0}};
  msg.event_ids = event_ids;
  EXPECT_EQ(encoded_size(msg), 50u);
}

TEST(EncodedSize, MembershipWithPiggyback) {
  Message msg = header(MsgKind::kMembership);
  msg.answer_topic = TopicId{6};
  const ProcessId processes[] = {ProcessId{1}, ProcessId{4}};
  msg.processes = processes;
  msg.piggyback_topic = TopicId{5};
  const ProcessId super_table[] = {ProcessId{40}, ProcessId{41}};
  msg.piggyback_super_table = super_table;
  EXPECT_EQ(encoded_size(msg), 54u);
  const EventId event_ids[] = {EventId{ProcessId{5}, 0}};
  msg.event_ids = event_ids;
  EXPECT_EQ(encoded_size(msg), 62u);
}

TEST(EncodedSize, EventRequest) {
  Message msg = header(MsgKind::kEventRequest);
  const EventId event_ids[] = {EventId{ProcessId{1}, 2},
                               EventId{ProcessId{3}, 4}};
  msg.event_ids = event_ids;
  EXPECT_EQ(encoded_size(msg), 37u);
}

TEST(EventId, OrderingAndHash) {
  const EventId a{ProcessId{1}, 5};
  const EventId b{ProcessId{1}, 5};
  const EventId c{ProcessId{1}, 6};
  const EventId d{ProcessId{2}, 0};
  EXPECT_EQ(a, b);
  EXPECT_LT(a, c);
  EXPECT_LT(c, d);
  EXPECT_EQ(std::hash<EventId>{}(a), std::hash<EventId>{}(b));
  EXPECT_NE(std::hash<EventId>{}(a), std::hash<EventId>{}(c));
}

}  // namespace
}  // namespace dam::net

#include "core/node.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "context_fixture.hpp"

namespace dam::core {
namespace {

using testing::OwnedMessage;

class NodeTest : public testing::ContextTest {
 protected:
  NodeTest() : ContextTest(2) {}

  /// A node on .t1.t2 (bottom topic) with deterministic parameters.
  DamNode make_node(std::uint32_t id, std::size_t level,
                    std::size_t group_size = 20, NodeConfig config = {}) {
    env_.group_sizes[levels_[level].value] = group_size;
    return DamNode(context(ProcessId{id}, levels_[level], config), group_size,
                   util::Rng(id + 100));
  }

  /// Parameters that force deterministic dissemination: always elect
  /// (g >= S via psel clamp), always hit every super entry (a == z).
  static NodeConfig eager_config() {
    NodeConfig config;
    config.params.g = 1000.0;  // psel = 1 for any group size we use
    config.params.a = 3.0;     // pa = 1
    return config;
  }

  Message event_msg(std::uint32_t from, std::uint32_t to, std::uint32_t seq,
                    std::size_t level) {
    Message msg;
    msg.kind = MsgKind::kEvent;
    msg.from = ProcessId{from};
    msg.to = ProcessId{to};
    msg.topic = levels_[level];
    msg.event = net::EventId{ProcessId{from}, seq};
    return msg;
  }
};

TEST_F(NodeTest, SubscribeSeedsTablesFromContacts) {
  auto node = make_node(0, 2);
  node.subscribe({ProcessId{1}, ProcessId{2}}, {ProcessId{50}, ProcessId{51}});
  EXPECT_EQ(node.group_membership().view().size(), 2u);
  EXPECT_EQ(node.super_table().size(), 2u);
  ASSERT_TRUE(node.super_table().super_topic().has_value());
  EXPECT_EQ(*node.super_table().super_topic(), levels_[1]);
  EXPECT_FALSE(node.bootstrap().active());  // shortcut taken
}

TEST_F(NodeTest, SubscribeWithoutSuperContactsStartsBootstrap) {
  env_.neighbors[0] = {ProcessId{5}};
  auto node = make_node(0, 2);
  node.subscribe({ProcessId{1}});
  EXPECT_TRUE(node.bootstrap().active());
  EXPECT_FALSE(env_.sent_of_kind(MsgKind::kReqContact).empty());
}

TEST_F(NodeTest, RootNodeNeverBootstraps) {
  env_.neighbors[0] = {ProcessId{5}};
  auto node = make_node(0, 0);
  node.subscribe({ProcessId{1}});
  EXPECT_FALSE(node.bootstrap().active());
  EXPECT_TRUE(env_.outbox.empty());
}

TEST_F(NodeTest, PublishDeliversLocallyAndGossips) {
  auto node = make_node(0, 2, 20, eager_config());
  node.subscribe({ProcessId{1}, ProcessId{2}, ProcessId{3}},
                 {ProcessId{50}});
  const auto event = node.publish();
  // Local delivery.
  ASSERT_EQ(env_.delivered.size(), 1u);
  EXPECT_EQ(env_.delivered[0].first, ProcessId{0});
  EXPECT_EQ(env_.delivered[0].second.event, event);
  EXPECT_TRUE(node.has_seen(event));
  // Intergroup leg went to the super contact (psel=1, pa=1).
  const auto inter = env_.sent_of_kind(MsgKind::kEvent);
  ASSERT_FALSE(inter.empty());
  int intergroup = 0;
  int intragroup = 0;
  for (const OwnedMessage& msg : inter) {
    if (msg.intergroup) {
      ++intergroup;
      EXPECT_EQ(msg.to, ProcessId{50});
    } else {
      ++intragroup;
      EXPECT_TRUE((msg.to == ProcessId{1}) || (msg.to == ProcessId{2}) ||
                  (msg.to == ProcessId{3}));
    }
  }
  EXPECT_EQ(intergroup, 1);
  EXPECT_EQ(intragroup, 3);  // fanout capped by view size
}

TEST_F(NodeTest, IntraGossipTargetsAreDistinct) {
  auto node = make_node(0, 2, 2000, eager_config());
  std::vector<ProcessId> contacts;
  for (std::uint32_t i = 1; i <= 40; ++i) contacts.push_back(ProcessId{i});
  node.subscribe(contacts, {ProcessId{50}});
  node.publish();
  const auto sent = env_.sent_of_kind(MsgKind::kEvent);
  std::vector<std::uint32_t> intra_targets;
  for (const OwnedMessage& msg : sent) {
    if (!msg.intergroup) intra_targets.push_back(msg.to.value);
  }
  // fanout(2000) = ceil(ln 2000 + 5) = 13.
  EXPECT_EQ(intra_targets.size(), 13u);
  std::sort(intra_targets.begin(), intra_targets.end());
  EXPECT_EQ(std::adjacent_find(intra_targets.begin(), intra_targets.end()),
            intra_targets.end());
}

TEST_F(NodeTest, GroupSizeIsPulledAtTheNextRoundOrMessage) {
  // Nobody pushes a new group size into the node: it reads
  // Env::group_size where it uses it — a round, a first reception or a
  // publish (dissemination), a membership merge — and nowhere else.
  auto node = make_node(0, 2, 20);
  node.subscribe({ProcessId{1}, ProcessId{2}}, {ProcessId{50}});
  const auto& membership = node.group_membership();
  const TopicParams& params = node.config().params;

  env_.group_sizes[levels_[2].value] = 315;
  EXPECT_EQ(membership.group_size_estimate(), 20u);  // nothing pulled yet
  node.round(0);
  EXPECT_EQ(membership.group_size_estimate(), 315u);
  EXPECT_EQ(membership.view().capacity(), params.view_capacity(315));

  env_.group_sizes[levels_[2].value] = 40;
  node.on_message(event_msg(9, 0, 0, 2));
  EXPECT_EQ(membership.group_size_estimate(), 40u);
  EXPECT_EQ(membership.view().capacity(), params.view_capacity(40));

  // A duplicate reads neither the estimate nor the capacity.
  env_.group_sizes[levels_[2].value] = 41;
  node.on_message(event_msg(9, 0, 0, 2));
  EXPECT_EQ(membership.group_size_estimate(), 40u);
  node.publish();
  EXPECT_EQ(membership.group_size_estimate(), 41u);

  OwnedMessage gossip;
  gossip.kind = MsgKind::kMembership;
  gossip.from = ProcessId{3};
  gossip.to = ProcessId{0};
  gossip.answer_topic = levels_[2];
  env_.group_sizes[levels_[2].value] = 500;
  node.on_message(gossip.view());
  EXPECT_EQ(membership.group_size_estimate(), 500u);
  EXPECT_EQ(membership.view().capacity(), params.view_capacity(500));
}

TEST_F(NodeTest, FirstReceptionForwardsDuplicatesSuppressed) {
  auto node = make_node(0, 2, 20, eager_config());
  node.subscribe({ProcessId{1}, ProcessId{2}}, {ProcessId{50}});
  const Message msg = event_msg(9, 0, 0, 2);
  node.on_message(msg);
  EXPECT_EQ(env_.delivered.size(), 1u);
  const auto first_sends = env_.outbox.size();
  EXPECT_GT(first_sends, 0u);
  // Duplicate: no new delivery, no new sends.
  node.on_message(msg);
  EXPECT_EQ(env_.delivered.size(), 1u);
  EXPECT_EQ(env_.outbox.size(), first_sends);
  EXPECT_EQ(node.duplicate_count(), 1u);
}

TEST_F(NodeTest, SupergroupMemberForwardsWithinOwnGroup) {
  // A t1 node receiving a t2 event forwards it in the t1 group and up to
  // the root group, per the bottom-up scheme.
  auto node = make_node(0, 1, 20, eager_config());
  node.subscribe({ProcessId{1}, ProcessId{2}}, {ProcessId{60}});
  node.on_message(event_msg(9, 0, 0, 2));  // event of the SUBtopic t2
  const auto sent = env_.sent_of_kind(MsgKind::kEvent);
  ASSERT_FALSE(sent.empty());
  for (const OwnedMessage& msg : sent) {
    EXPECT_EQ(msg.topic, levels_[2]);  // original topic is preserved
    if (msg.intergroup) {
      EXPECT_EQ(msg.to, ProcessId{60});
    }
  }
}

TEST_F(NodeTest, RootNodeSendsNoIntergroupMessages) {
  auto node = make_node(0, 0, 10, eager_config());
  node.subscribe({ProcessId{1}, ProcessId{2}});
  node.on_message(event_msg(9, 0, 0, 2));
  for (const OwnedMessage& msg : env_.sent_of_kind(MsgKind::kEvent)) {
    EXPECT_FALSE(msg.intergroup);
  }
}

TEST_F(NodeTest, ReqContactAnsweredByInterestedNode) {
  // Node on t1 receives a REQCONTACT searching for t1.
  auto node = make_node(0, 1);
  node.subscribe({ProcessId{1}, ProcessId{2}}, {ProcessId{60}});
  env_.clear();
  OwnedMessage req;
  req.kind = MsgKind::kReqContact;
  req.from = ProcessId{9};
  req.to = ProcessId{0};
  req.origin = ProcessId{9};
  req.request_id = 1;
  req.ttl = 3;
  req.init_msg = {levels_[1]};
  node.on_message(req.view());
  const auto answers = env_.sent_of_kind(MsgKind::kAnsContact);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].to, ProcessId{9});
  EXPECT_EQ(answers[0].answer_topic, levels_[1]);
  // The answering node offers itself among the contacts.
  EXPECT_NE(std::find(answers[0].processes.begin(),
                      answers[0].processes.end(), ProcessId{0}),
            answers[0].processes.end());
}

TEST_F(NodeTest, ReqContactAnsweredFromSuperTable) {
  // Node on t2 knows t1 processes via its super table; it can answer a
  // search for t1 even though it is not interested in t1 itself.
  auto node = make_node(0, 2);
  node.subscribe({ProcessId{1}}, {ProcessId{60}, ProcessId{61}});
  env_.clear();
  OwnedMessage req;
  req.kind = MsgKind::kReqContact;
  req.from = ProcessId{9};
  req.to = ProcessId{0};
  req.origin = ProcessId{9};
  req.request_id = 2;
  req.ttl = 3;
  req.init_msg = {levels_[1]};
  node.on_message(req.view());
  const auto answers = env_.sent_of_kind(MsgKind::kAnsContact);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].answer_topic, levels_[1]);
  EXPECT_EQ(answers[0].processes.size(), 2u);
}

TEST_F(NodeTest, ReqContactForwardedWhenCannotAnswer) {
  env_.neighbors[0] = {ProcessId{7}, ProcessId{8}, ProcessId{9}};
  auto node = make_node(0, 2);
  node.subscribe({ProcessId{1}}, {ProcessId{60}});
  env_.clear();
  OwnedMessage req;
  req.kind = MsgKind::kReqContact;
  req.from = ProcessId{9};
  req.to = ProcessId{0};
  req.origin = ProcessId{5};
  req.request_id = 3;
  req.ttl = 2;
  req.init_msg = {levels_[0]};  // searching root; node knows nobody there
  node.on_message(req.view());
  const auto forwarded = env_.sent_of_kind(MsgKind::kReqContact);
  // Forwards to neighbors except the sender (9) and origin (5): 7 and 8.
  ASSERT_EQ(forwarded.size(), 2u);
  for (const OwnedMessage& msg : forwarded) {
    EXPECT_EQ(msg.ttl, 1u);
    EXPECT_EQ(msg.origin, ProcessId{5});
    EXPECT_TRUE((msg.to == ProcessId{7}) || (msg.to == ProcessId{8}));
  }
}

TEST_F(NodeTest, ReqContactNotForwardedWhenTtlExpired) {
  env_.neighbors[0] = {ProcessId{7}};
  auto node = make_node(0, 2);
  node.subscribe({ProcessId{1}}, {ProcessId{60}});
  env_.clear();
  OwnedMessage req;
  req.kind = MsgKind::kReqContact;
  req.from = ProcessId{9};
  req.to = ProcessId{0};
  req.origin = ProcessId{5};
  req.request_id = 4;
  req.ttl = 0;
  req.init_msg = {levels_[0]};
  node.on_message(req.view());
  EXPECT_TRUE(env_.outbox.empty());
}

TEST_F(NodeTest, DuplicateReqContactIgnored) {
  env_.neighbors[0] = {ProcessId{7}};
  auto node = make_node(0, 2);
  node.subscribe({ProcessId{1}}, {ProcessId{60}});
  env_.clear();
  OwnedMessage req;
  req.kind = MsgKind::kReqContact;
  req.from = ProcessId{9};
  req.to = ProcessId{0};
  req.origin = ProcessId{5};
  req.request_id = 7;
  req.ttl = 3;
  req.init_msg = {levels_[0]};
  node.on_message(req.view());
  const auto first = env_.outbox.size();
  node.on_message(req.view());  // flood duplicate
  EXPECT_EQ(env_.outbox.size(), first);
}

TEST_F(NodeTest, AnsContactFillsSuperTableAndStopsBootstrap) {
  env_.neighbors[0] = {ProcessId{5}};
  auto node = make_node(0, 2);
  node.subscribe({ProcessId{1}});  // bootstrap starts
  ASSERT_TRUE(node.bootstrap().active());
  OwnedMessage ans;
  ans.kind = MsgKind::kAnsContact;
  ans.from = ProcessId{60};
  ans.to = ProcessId{0};
  ans.answer_topic = levels_[1];  // the direct supertopic
  ans.processes = {ProcessId{60}, ProcessId{61}};
  node.on_message(ans.view());
  EXPECT_FALSE(node.bootstrap().active());
  EXPECT_EQ(node.super_table().size(), 2u);
  EXPECT_EQ(*node.super_table().super_topic(), levels_[1]);
}

TEST_F(NodeTest, DeeperAnswerReplacesShallowerSuperTable) {
  env_.neighbors[0] = {ProcessId{5}};
  auto node = make_node(0, 2);
  node.subscribe({ProcessId{1}});
  // First answer: only root contacts found.
  OwnedMessage root_ans;
  root_ans.kind = MsgKind::kAnsContact;
  root_ans.from = ProcessId{70};
  root_ans.to = ProcessId{0};
  root_ans.answer_topic = levels_[0];
  root_ans.processes = {ProcessId{70}};
  // Root is not in scope until the search widens; simulate the widening.
  // (Answer for out-of-scope topic still adopted when the table is empty —
  // better than nothing, per MERGE semantics.)
  node.on_message(root_ans.view());
  ASSERT_FALSE(node.super_table().empty());
  EXPECT_EQ(*node.super_table().super_topic(), levels_[0]);
  EXPECT_TRUE(node.bootstrap().active());  // still searching for t1
  // Later a t1 contact appears: deeper, so it wins.
  OwnedMessage t1_ans;
  t1_ans.kind = MsgKind::kAnsContact;
  t1_ans.from = ProcessId{60};
  t1_ans.to = ProcessId{0};
  t1_ans.answer_topic = levels_[1];
  t1_ans.processes = {ProcessId{60}};
  node.on_message(t1_ans.view());
  EXPECT_EQ(*node.super_table().super_topic(), levels_[1]);
  EXPECT_TRUE(node.super_table().contains(ProcessId{60}));
  EXPECT_FALSE(node.super_table().contains(ProcessId{70}));
  EXPECT_FALSE(node.bootstrap().active());
}

TEST_F(NodeTest, NewProcessAskAnsweredWithGroupSample) {
  auto node = make_node(0, 1);
  node.subscribe({ProcessId{1}, ProcessId{2}}, {ProcessId{60}});
  env_.clear();
  OwnedMessage ask;
  ask.kind = MsgKind::kNewProcessAsk;
  ask.from = ProcessId{99};
  ask.to = ProcessId{0};
  node.on_message(ask.view());
  const auto replies = env_.sent_of_kind(MsgKind::kNewProcessGive);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].to, ProcessId{99});
  EXPECT_EQ(replies[0].answer_topic, levels_[1]);
  ASSERT_FALSE(replies[0].processes.empty());
  EXPECT_EQ(replies[0].processes[0], ProcessId{0});  // includes itself
  EXPECT_LE(replies[0].processes.size(), node.config().params.z);
}

TEST_F(NodeTest, NewProcessGiveMergesIntoSuperTable) {
  auto node = make_node(0, 2);
  node.subscribe({ProcessId{1}}, {ProcessId{60}});
  OwnedMessage give;
  give.kind = MsgKind::kNewProcessGive;
  give.from = ProcessId{61};
  give.to = ProcessId{0};
  give.answer_topic = levels_[1];
  give.processes = {ProcessId{61}, ProcessId{62}};
  node.on_message(give.view());
  EXPECT_EQ(node.super_table().size(), 3u);  // 60 + 61 + 62, z = 3
}

TEST_F(NodeTest, NewProcessGiveForNonSupertopicIgnored) {
  auto node = make_node(0, 1);
  node.subscribe({ProcessId{1}}, {ProcessId{60}});
  OwnedMessage give;
  give.kind = MsgKind::kNewProcessGive;
  give.from = ProcessId{61};
  give.to = ProcessId{0};
  give.answer_topic = levels_[2];  // a SUBtopic — never a valid super
  give.processes = {ProcessId{61}};
  node.on_message(give.view());
  EXPECT_EQ(node.super_table().size(), 1u);
  EXPECT_FALSE(node.super_table().contains(ProcessId{61}));
}

TEST_F(NodeTest, MaintenanceAsksForFreshContactsWhenBelowThreshold) {
  NodeConfig config = eager_config();  // psel = 1: maintenance always probes
  auto node = make_node(0, 2, 20, config);
  node.subscribe({ProcessId{1}}, {ProcessId{60}, ProcessId{61}, ProcessId{62}});
  // 60 and 61 died -> alive count 1 <= tau (1): node must ask the remaining
  // alive entry for fresh contacts.
  env_.alive = [](ProcessId p) {
    return p != ProcessId{60} && p != ProcessId{61};
  };
  env_.clear();
  node.round(4);
  const auto asks = env_.sent_of_kind(MsgKind::kNewProcessAsk);
  ASSERT_EQ(asks.size(), 1u);
  EXPECT_EQ(asks[0].to, ProcessId{62});
}

TEST_F(NodeTest, MaintenanceQuietWhenTableHealthy) {
  NodeConfig config = eager_config();
  auto node = make_node(0, 2, 20, config);
  node.subscribe({ProcessId{1}}, {ProcessId{60}, ProcessId{61}, ProcessId{62}});
  env_.clear();
  node.round(4);
  EXPECT_TRUE(env_.sent_of_kind(MsgKind::kNewProcessAsk).empty());
}

TEST_F(NodeTest, MaintenanceRestartsBootstrapWhenAllSupersDead) {
  env_.neighbors[0] = {ProcessId{5}};
  NodeConfig config = eager_config();
  auto node = make_node(0, 2, 20, config);
  node.subscribe({ProcessId{1}}, {ProcessId{60}});
  env_.alive = [](ProcessId p) { return p != ProcessId{60}; };
  env_.clear();
  node.round(4);
  // The only super died: ask list is empty, bootstrap restarts.
  EXPECT_TRUE(node.bootstrap().active());
  EXPECT_FALSE(env_.sent_of_kind(MsgKind::kReqContact).empty());
}

TEST_F(NodeTest, MembershipRoundPiggybacksSuperTable) {
  auto node = make_node(0, 2, 20);
  node.subscribe({ProcessId{1}, ProcessId{2}}, {ProcessId{60}});
  env_.clear();
  node.round(1);
  const auto gossip = env_.sent_of_kind(MsgKind::kMembership);
  ASSERT_FALSE(gossip.empty());
  ASSERT_TRUE(gossip[0].piggyback_topic.has_value());
  EXPECT_EQ(*gossip[0].piggyback_topic, levels_[1]);
  EXPECT_EQ(gossip[0].piggyback_super_table,
            std::vector<ProcessId>{ProcessId{60}});
}

TEST_F(NodeTest, IncomingPiggybackFillsEmptySuperTable) {
  env_.neighbors[0] = {ProcessId{5}};
  auto node = make_node(0, 2, 20);
  node.subscribe({ProcessId{1}});  // no super contacts; bootstrap running
  OwnedMessage gossip;
  gossip.kind = MsgKind::kMembership;
  gossip.from = ProcessId{1};
  gossip.to = ProcessId{0};
  gossip.answer_topic = levels_[2];
  gossip.processes = {ProcessId{2}};
  gossip.piggyback_topic = levels_[1];
  gossip.piggyback_super_table = {ProcessId{60}, ProcessId{61}};
  node.on_message(gossip.view());
  EXPECT_EQ(node.super_table().size(), 2u);
  EXPECT_EQ(*node.super_table().super_topic(), levels_[1]);
  EXPECT_FALSE(node.bootstrap().active());  // piggyback satisfied the search
  EXPECT_TRUE(node.group_membership().view().contains(ProcessId{2}));
}

TEST_F(NodeTest, MembershipForOtherTopicDoesNotPolluteView) {
  auto node = make_node(0, 2, 20);
  node.subscribe({ProcessId{1}}, {ProcessId{60}});
  OwnedMessage gossip;
  gossip.kind = MsgKind::kMembership;
  gossip.from = ProcessId{9};
  gossip.to = ProcessId{0};
  gossip.answer_topic = levels_[1];  // different group's gossip
  gossip.processes = {ProcessId{33}};
  node.on_message(gossip.view());
  EXPECT_FALSE(node.group_membership().view().contains(ProcessId{33}));
  EXPECT_FALSE(node.group_membership().view().contains(ProcessId{9}));
}

TEST_F(NodeTest, MemoryFootprintWithinPaperBound) {
  auto node = make_node(0, 2, 1000);
  std::vector<ProcessId> many;
  for (std::uint32_t i = 1; i <= 200; ++i) many.push_back(ProcessId{i});
  node.subscribe(many, {ProcessId{60}, ProcessId{61}, ProcessId{62}});
  // (b+1)ln(1000) = 28 topic entries max, z = 3 super entries.
  EXPECT_LE(node.memory_footprint(), 28u + 3u);
}

TEST_F(NodeTest, PublishSequenceNumbersIncrease) {
  auto node = make_node(0, 2, 20, eager_config());
  node.subscribe({ProcessId{1}}, {ProcessId{50}});
  const auto first = node.publish();
  const auto second = node.publish();
  EXPECT_EQ(first.publisher, ProcessId{0});
  EXPECT_EQ(second.sequence, first.sequence + 1);
}

}  // namespace
}  // namespace dam::core

#include "membership/flat_membership.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/context_fixture.hpp"
#include "owned_message.hpp"

namespace dam::membership {
namespace {

using core::NodeContext;
using dam::testing::OwnedMessage;
using net::Message;
using net::MsgKind;
using topics::TopicId;

/// Members of topic levels_[1]; gossip lands in the fixture's env_.
class FlatMembershipTest : public core::testing::ContextTest {
 protected:
  NodeContext ctx(std::uint32_t id) {
    return context(ProcessId{id}, levels_[1]);
  }

  FlatMembership make_member(std::uint32_t id, std::size_t group_size = 100) {
    return FlatMembership(ctx(id), group_size, util::Rng(id + 1));
  }
};

TEST_F(FlatMembershipTest, JoinSeedsView) {
  auto member = make_member(0);
  member.join({ProcessId{1}, ProcessId{2}, ProcessId{0}});
  EXPECT_EQ(member.view().size(), 2u);  // self filtered out
  EXPECT_TRUE(member.view().contains(ProcessId{1}));
}

TEST_F(FlatMembershipTest, RoundEmitsGossipToViewMembers) {
  auto member = make_member(0);
  member.join({ProcessId{1}, ProcessId{2}, ProcessId{3}});
  member.round(ctx(0), {}, std::nullopt);
  const std::vector<OwnedMessage>& sent = env_.outbox;
  ASSERT_EQ(sent.size(), 1u);  // one exchange per round
  EXPECT_EQ(sent[0].kind, MsgKind::kMembership);
  EXPECT_EQ(sent[0].from, ProcessId{0});
  EXPECT_EQ(sent[0].answer_topic, levels_[1]);
  EXPECT_TRUE(member.view().contains(sent[0].to));
  EXPECT_FALSE(sent[0].piggyback_topic.has_value());
}

TEST_F(FlatMembershipTest, RoundWithEmptyViewIsSilent) {
  auto member = make_member(0);
  member.round(ctx(0), {}, std::nullopt);
  EXPECT_TRUE(env_.outbox.empty());
}

TEST_F(FlatMembershipTest, PiggybackRidesAlong) {
  auto member = make_member(0);
  member.join({ProcessId{1}});
  const std::vector<ProcessId> piggyback{ProcessId{50}, ProcessId{51}};
  member.round(ctx(0), piggyback, TopicId{9});
  const std::vector<OwnedMessage>& sent = env_.outbox;
  ASSERT_EQ(sent.size(), 1u);
  ASSERT_TRUE(sent[0].piggyback_topic.has_value());
  EXPECT_EQ(*sent[0].piggyback_topic, TopicId{9});
  EXPECT_EQ(sent[0].piggyback_super_table.size(), 2u);
}

TEST_F(FlatMembershipTest, OnMembershipLearnsSenderAndPayload) {
  auto member = make_member(0);
  OwnedMessage msg;
  msg.kind = MsgKind::kMembership;
  msg.from = ProcessId{5};
  msg.to = ProcessId{0};
  msg.answer_topic = TopicId{1};
  msg.processes = {ProcessId{6}, ProcessId{7}};
  member.on_membership(msg.view());
  EXPECT_TRUE(member.view().contains(ProcessId{5}));
  EXPECT_TRUE(member.view().contains(ProcessId{6}));
  EXPECT_TRUE(member.view().contains(ProcessId{7}));
}

TEST_F(FlatMembershipTest, EvictRemovesPeer) {
  auto member = make_member(0);
  member.join({ProcessId{1}, ProcessId{2}});
  member.evict(ProcessId{1});
  EXPECT_FALSE(member.view().contains(ProcessId{1}));
  EXPECT_TRUE(member.view().contains(ProcessId{2}));
}

TEST_F(FlatMembershipTest, GroupSizeEstimateResizesView) {
  auto member = make_member(0, 1000);
  EXPECT_EQ(member.view().capacity(), 28u);
  member.set_group_size_estimate(ctx(0), 10);
  EXPECT_EQ(member.group_size_estimate(), 10u);
  EXPECT_EQ(member.view().capacity(), 10u);
}

TEST_F(FlatMembershipTest, GossipConvergesViewsInAGroup) {
  // 30 members in a line initially; after enough gossip rounds every view
  // should be full (knowledge has spread well beyond direct contacts).
  constexpr std::uint32_t kMembers = 30;
  std::vector<NodeContext> contexts;
  std::vector<FlatMembership> members;
  members.reserve(kMembers);
  for (std::uint32_t i = 0; i < kMembers; ++i) {
    contexts.push_back(ctx(i));
    members.push_back(make_member(i, kMembers));
  }
  for (std::uint32_t i = 0; i + 1 < kMembers; ++i) {
    members[i].join({ProcessId{i + 1}});
    members[i + 1].join({ProcessId{i}});
  }
  for (sim::Round round = 0; round < 60; ++round) {
    env_.clear();
    for (std::uint32_t i = 0; i < kMembers; ++i) {
      members[i].round(contexts[i], {}, std::nullopt);
    }
    for (const OwnedMessage& msg : env_.outbox) {
      members[msg.to.value].on_membership(msg.view());
    }
  }
  const std::size_t capacity =
      contexts[0].config->params.view_capacity(kMembers);
  for (const auto& member : members) {
    EXPECT_GE(member.view().size(), capacity - 2)
        << "member " << member.view().owner().value;
  }
}

}  // namespace
}  // namespace dam::membership

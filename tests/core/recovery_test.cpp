// The lpbcast-style event-recovery extension: history digests on
// membership gossip + retransmission requests.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/node.hpp"
#include "core/system.hpp"
#include "fake_env.hpp"
#include "topics/hierarchy.hpp"

namespace dam::core {
namespace {

using testing::FakeEnv;

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() {
    levels_ = topics::make_linear_hierarchy(hierarchy_, 1);
    env_.group_sizes[levels_[1].value] = 10;
  }

  NodeConfig recovery_config() {
    NodeConfig config;
    config.recovery.enabled = true;
    config.recovery.history_size = 8;
    config.recovery.digest_size = 4;
    return config;
  }

  DamNode make_node(std::uint32_t id, NodeConfig config) {
    return DamNode(ProcessId{id}, levels_[1], &hierarchy_, config, 10,
                   util::Rng(id + 1), &env_);
  }

  Message event_msg(std::uint32_t publisher, std::uint32_t seq,
                    std::string_view text = "") {
    Message msg;
    msg.kind = MsgKind::kEvent;
    msg.from = ProcessId{publisher};
    msg.to = ProcessId{0};
    msg.topic = levels_[1];
    msg.event = net::EventId{ProcessId{publisher}, seq};
    msg.payload.assign(text.begin(), text.end());
    return msg;
  }

  topics::TopicHierarchy hierarchy_;
  std::vector<topics::TopicId> levels_;
  FakeEnv env_;
};

TEST_F(RecoveryTest, DigestRidesOnMembershipGossip) {
  auto node = make_node(0, recovery_config());
  node.subscribe({ProcessId{1}}, {ProcessId{50}});
  node.on_message(event_msg(9, 0));
  node.on_message(event_msg(9, 1));
  env_.clear();
  node.round(1);
  const auto gossip = env_.sent_of_kind(MsgKind::kMembership);
  ASSERT_FALSE(gossip.empty());
  ASSERT_EQ(gossip[0].event_ids.size(), 2u);
  // Most recent first.
  EXPECT_EQ(gossip[0].event_ids[0], (net::EventId{ProcessId{9}, 1}));
  EXPECT_EQ(gossip[0].event_ids[1], (net::EventId{ProcessId{9}, 0}));
}

TEST_F(RecoveryTest, DigestCappedAtConfiguredSize) {
  auto node = make_node(0, recovery_config());  // digest_size = 4
  node.subscribe({ProcessId{1}}, {ProcessId{50}});
  for (std::uint32_t seq = 0; seq < 7; ++seq) {
    node.on_message(event_msg(9, seq));
  }
  env_.clear();
  node.round(1);
  const auto gossip = env_.sent_of_kind(MsgKind::kMembership);
  ASSERT_FALSE(gossip.empty());
  EXPECT_EQ(gossip[0].event_ids.size(), 4u);
  EXPECT_EQ(gossip[0].event_ids[0], (net::EventId{ProcessId{9}, 6}));
}

TEST_F(RecoveryTest, NoDigestWhenDisabled) {
  NodeConfig config;  // recovery off by default
  auto node = make_node(0, config);
  node.subscribe({ProcessId{1}}, {ProcessId{50}});
  node.on_message(event_msg(9, 0));
  env_.clear();
  node.round(1);
  const auto gossip = env_.sent_of_kind(MsgKind::kMembership);
  ASSERT_FALSE(gossip.empty());
  EXPECT_TRUE(gossip[0].event_ids.empty());
}

TEST_F(RecoveryTest, MissingIdsTriggerRequest) {
  auto node = make_node(0, recovery_config());
  node.subscribe({ProcessId{1}}, {ProcessId{50}});
  node.on_message(event_msg(9, 0));  // seen
  Message gossip;
  gossip.kind = MsgKind::kMembership;
  gossip.from = ProcessId{1};
  gossip.to = ProcessId{0};
  gossip.answer_topic = levels_[1];
  gossip.event_ids = {net::EventId{ProcessId{9}, 0},   // have it
                      net::EventId{ProcessId{9}, 5},   // missing
                      net::EventId{ProcessId{4}, 2}};  // missing
  env_.clear();
  node.on_message(gossip);
  const auto requests = env_.sent_of_kind(MsgKind::kEventRequest);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].to, ProcessId{1});
  ASSERT_EQ(requests[0].event_ids.size(), 2u);
  EXPECT_EQ(node.recovery_requests_sent(), 1u);
}

TEST_F(RecoveryTest, NoRequestWhenNothingMissing) {
  auto node = make_node(0, recovery_config());
  node.subscribe({ProcessId{1}}, {ProcessId{50}});
  node.on_message(event_msg(9, 0));
  Message gossip;
  gossip.kind = MsgKind::kMembership;
  gossip.from = ProcessId{1};
  gossip.to = ProcessId{0};
  gossip.answer_topic = levels_[1];
  gossip.event_ids = {net::EventId{ProcessId{9}, 0}};
  env_.clear();
  node.on_message(gossip);
  EXPECT_TRUE(env_.sent_of_kind(MsgKind::kEventRequest).empty());
}

TEST_F(RecoveryTest, RequestAnsweredFromHistoryWithPayload) {
  auto node = make_node(0, recovery_config());
  node.subscribe({ProcessId{1}}, {ProcessId{50}});
  node.on_message(event_msg(9, 3, "precious bytes"));
  Message request;
  request.kind = MsgKind::kEventRequest;
  request.from = ProcessId{7};
  request.to = ProcessId{0};
  request.event_ids = {net::EventId{ProcessId{9}, 3},
                       net::EventId{ProcessId{9}, 99}};  // unknown: skipped
  env_.clear();
  node.on_message(request);
  const auto retransmitted = env_.sent_of_kind(MsgKind::kEvent);
  ASSERT_EQ(retransmitted.size(), 1u);
  EXPECT_EQ(retransmitted[0].to, ProcessId{7});
  EXPECT_EQ(retransmitted[0].event, (net::EventId{ProcessId{9}, 3}));
  const std::string text(retransmitted[0].payload.begin(),
                         retransmitted[0].payload.end());
  EXPECT_EQ(text, "precious bytes");
  EXPECT_EQ(node.retransmissions_sent(), 1u);
}

TEST_F(RecoveryTest, HistoryBounded) {
  auto node = make_node(0, recovery_config());  // history_size = 8
  node.subscribe({ProcessId{1}}, {ProcessId{50}});
  for (std::uint32_t seq = 0; seq < 20; ++seq) {
    node.on_message(event_msg(9, seq));
  }
  // Request an evicted event: silence. Request a recent one: answered.
  Message request;
  request.kind = MsgKind::kEventRequest;
  request.from = ProcessId{7};
  request.to = ProcessId{0};
  request.event_ids = {net::EventId{ProcessId{9}, 0}};
  env_.clear();
  node.on_message(request);
  EXPECT_TRUE(env_.sent_of_kind(MsgKind::kEvent).empty());
  request.event_ids = {net::EventId{ProcessId{9}, 19}};
  node.on_message(request);
  EXPECT_EQ(env_.sent_of_kind(MsgKind::kEvent).size(), 1u);
}

TEST_F(RecoveryTest, RequestIgnoredWhenDisabled) {
  NodeConfig config;
  auto node = make_node(0, config);
  node.subscribe({ProcessId{1}}, {ProcessId{50}});
  node.on_message(event_msg(9, 0));
  Message request;
  request.kind = MsgKind::kEventRequest;
  request.from = ProcessId{7};
  request.to = ProcessId{0};
  request.event_ids = {net::EventId{ProcessId{9}, 0}};
  env_.clear();
  node.on_message(request);
  EXPECT_TRUE(env_.outbox.empty());
}

TEST(RecoveryIntegration, RecoveryImprovesDeliveryUnderLoss) {
  // Same seeds, very lossy channels, publish several events: the recovery
  // run must deliver strictly more (event, process) pairs overall.
  auto run = [](bool recovery, std::uint64_t seed) {
    topics::TopicHierarchy hierarchy;
    const auto levels = topics::make_linear_hierarchy(hierarchy, 1);
    DamSystem::Config config;
    config.seed = seed;
    config.auto_wire_super_tables = true;
    // A weak base (small fanout, lossy channels) leaves gossip well short
    // of full coverage, so the recovery effect is clearly measurable.
    config.node.params.c = 1.0;
    config.node.params.psucc = 0.5;
    config.node.recovery.enabled = recovery;
    config.node.recovery.history_size = 32;
    config.node.recovery.digest_size = 8;
    DamSystem system(hierarchy, config);
    system.spawn_group(levels[0], 8);
    const auto leaves = system.spawn_group(levels[1], 40);
    system.run_rounds(3);
    double total_ratio = 0.0;
    for (int i = 0; i < 4; ++i) {
      const auto event = system.publish(leaves[i * 7]);
      system.run_rounds(25);
      total_ratio += system.delivery_ratio(event);
    }
    return total_ratio / 4.0;
  };
  double without_sum = 0.0;
  double with_sum = 0.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    without_sum += run(false, seed);
    with_sum += run(true, seed);
  }
  EXPECT_GT(with_sum / 6.0, without_sum / 6.0 + 0.05);
  EXPECT_GT(with_sum / 6.0, 0.85);  // recovery pushes toward completeness
}

TEST(RecoveryIntegration, NoParasitesWithRecovery) {
  // Retransmissions must respect topic interests exactly like first-class
  // dissemination.
  topics::TopicHierarchy hierarchy;
  const auto eu = hierarchy.add(".n.eu");
  const auto us = hierarchy.add(".n.us");
  DamSystem::Config config;
  config.seed = 3;
  config.auto_wire_super_tables = true;
  config.node.params.psucc = 0.6;
  config.node.recovery.enabled = true;
  DamSystem system(hierarchy, config);
  system.spawn_group(*hierarchy.find(".n"), 10);
  const auto eu_subs = system.spawn_group(eu, 15);
  system.spawn_group(us, 15);
  system.run_rounds(3);
  system.publish(eu_subs[0]);
  system.run_rounds(40);
  EXPECT_EQ(system.metrics().parasite_deliveries(), 0u);
}

}  // namespace
}  // namespace dam::core

#include "baselines/hierarchical.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "frozen_chain.hpp"

namespace dam::baselines {
namespace {

using dam::testing::Chain;

TEST(Hierarchical, DeliversBroadlyWhenHealthy) {
  const Chain chain;
  const auto result =
      run_hierarchical(chain.publish_at(2, 1, 1.0), HierarchicalConfig{});
  EXPECT_EQ(result.interested_alive, 1110u);
  // Two-level gossip is reliable but not perfect; expect near-full coverage.
  EXPECT_GT(result.delivery_ratio(), 0.95);
}

TEST(Hierarchical, MidLevelEventCausesParasites) {
  const Chain chain;
  const auto result =
      run_hierarchical(chain.publish_at(1, 2, 1.0), HierarchicalConfig{});
  // Interest-agnostic grouping: the 1000 uninterested T2 subscribers are
  // spread across all groups and receive the event anyway.
  EXPECT_GT(result.parasite_deliveries, 800u);
}

TEST(Hierarchical, FewerGroupsMoreIntraTraffic) {
  const Chain chain;
  const core::FrozenSimConfig config = chain.publish_at(2, 3);
  HierarchicalConfig few;
  few.group_count = 2;
  HierarchicalConfig many;
  many.group_count = 64;
  const auto result_few = run_hierarchical(config, few);
  const auto result_many = run_hierarchical(config, many);
  // Larger groups -> larger intra fanout ln(m)+c1 -> more messages.
  EXPECT_GT(result_few.messages_sent, result_many.messages_sent);
}

TEST(Hierarchical, StillbornFailuresDegrade) {
  const Chain chain;
  core::FrozenSimConfig config = chain.publish_at(2, 4);
  config.alive_fraction = 0.4;
  const auto result = run_hierarchical(config, HierarchicalConfig{});
  EXPECT_LE(result.delivered_interested, result.interested_alive);
  EXPECT_NEAR(static_cast<double>(result.interested_alive), 444.0, 60.0);
}

TEST(Hierarchical, GroupCountCappedByPopulation) {
  const Chain chain({2, 3, 4});  // population 9
  HierarchicalConfig hierarchy;
  hierarchy.group_count = 100;  // more groups than processes
  const auto result = run_hierarchical(chain.publish_at(2, 5), hierarchy);
  EXPECT_GT(result.delivered_interested, 0u);
}

TEST(Hierarchical, RejectsBadConfigs) {
  const Chain chain;
  core::FrozenSimConfig bad_topic = chain.publish_at(2, 1);
  bad_topic.publish_topic = topics::TopicId{7};
  EXPECT_THROW((void)run_hierarchical(bad_topic, HierarchicalConfig{}),
               std::invalid_argument);

  core::FrozenSimConfig churn = chain.publish_at(2, 1);
  churn.failure_mode = core::FrozenFailureMode::kChurn;
  EXPECT_THROW((void)run_hierarchical(churn, HierarchicalConfig{}),
               std::invalid_argument);
}

TEST(Hierarchical, DeterministicForSeed) {
  const Chain chain;
  const core::FrozenSimConfig config = chain.publish_at(2, 99);
  const auto a = run_hierarchical(config, HierarchicalConfig{});
  const auto b = run_hierarchical(config, HierarchicalConfig{});
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.delivered_interested, b.delivered_interested);
}

}  // namespace
}  // namespace dam::baselines

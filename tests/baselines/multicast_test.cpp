#include "baselines/broadcast.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "frozen_chain.hpp"

namespace dam::baselines {
namespace {

using dam::testing::Audience;
using dam::testing::Chain;

TEST(Multicast, NeverProducesParasites) {
  const Chain chain;
  for (std::uint32_t level = 0; level <= 2; ++level) {
    const core::FrozenSimConfig config = chain.publish_at(level, level + 1);
    EXPECT_EQ(Audience(config, run_multicast(config)).parasites, 0u)
        << "level " << level;
  }
}

TEST(Multicast, GroupContainsSupertopicSubscribers) {
  const Chain chain;
  const core::FrozenSimConfig config = chain.publish_at(2, 2, 1.0);
  const core::FrozenRunResult run = run_multicast(config);
  // Group T2 = 1000 + 100 + 10 members, all interested; each row holds
  // its own topic's members.
  const Audience audience(config, run);
  EXPECT_EQ(audience.alive, 1110u);
  EXPECT_TRUE(audience.all_delivered());
  for (std::size_t topic = 0; topic < 3; ++topic) {
    SCOPED_TRACE(topic);
    EXPECT_EQ(run.groups[topic].size, chain.scenario.group_sizes[topic]);
    EXPECT_EQ(run.groups[topic].delivered, run.groups[topic].size);
    EXPECT_GT(run.groups[topic].intra_sent, 0u);
  }
  EXPECT_TRUE(run.all_groups_delivered());
}

TEST(Multicast, RootEventStaysInRootGroup) {
  const Chain chain;
  const core::FrozenSimConfig config = chain.publish_at(0, 3, 1.0);
  const core::FrozenRunResult run = run_multicast(config);
  const Audience audience(config, run);
  EXPECT_EQ(audience.alive, 10u);
  EXPECT_TRUE(audience.all_delivered());
  // Message count stays proportional to the small group, not the system.
  EXPECT_LT(run.total_messages, 200u);
  EXPECT_EQ(run.groups[0].intra_sent, run.total_messages);
}

TEST(Multicast, MessageComplexityMatchesGroupSize) {
  const Chain chain;
  const core::FrozenRunResult run = run_multicast(chain.publish_at(2, 4));
  const double expected = 1110.0 * 13.0;  // ceil(ln 1110 + 5) = 13
  EXPECT_NEAR(static_cast<double>(run.total_messages), expected,
              expected * 0.1);
}

TEST(Multicast, RejectsBadConfigs) {
  const Chain chain;
  core::FrozenSimConfig bad_topic = chain.publish_at(2, 1);
  bad_topic.publish_topic = topics::TopicId{9};
  EXPECT_THROW((void)run_multicast(bad_topic), std::invalid_argument);

  core::FrozenSimConfig churn = chain.publish_at(2, 1);
  churn.failure_mode = core::FrozenFailureMode::kChurn;
  EXPECT_THROW((void)run_multicast(churn), std::invalid_argument);
}

TEST(Multicast, MatchesBroadcastOnAOneTopicChain) {
  // With one topic the audience is the whole population, so the multicast
  // group IS the broadcast group: same tables, start and waves. Both sit
  // on frozen_sim's rows (Broadcast.TablesAreFrozenSimRows) and start
  // (Runner.FrozenLaneEnginesShareEveryRunStart).
  const Chain flat({700});
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    core::FrozenSimConfig config = flat.publish_at(0, seed);
    config.alive_fraction = 0.8;
    const core::FrozenRunResult multicast = run_multicast(config);
    const core::FrozenRunResult broadcast = run_broadcast(config);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(multicast.total_messages, broadcast.total_messages);
    EXPECT_EQ(multicast.groups[0].delivered, broadcast.groups[0].delivered);
    EXPECT_EQ(multicast.groups[0].alive, broadcast.groups[0].alive);
    EXPECT_EQ(multicast.groups[0].duplicate_deliveries,
              broadcast.groups[0].duplicate_deliveries);
    EXPECT_EQ(multicast.rounds, broadcast.rounds);
    EXPECT_EQ(multicast.table_bytes, broadcast.table_bytes);
    EXPECT_LT(multicast.groups[0].alive, 700u);  // the stillborn draw
  }
}

}  // namespace
}  // namespace dam::baselines

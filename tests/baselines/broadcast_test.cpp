#include "baselines/broadcast.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "frozen_chain.hpp"
#include "util/rng.hpp"

namespace dam::baselines {
namespace {

using dam::testing::Audience;
using dam::testing::Chain;

TEST(Broadcast, PublishAtBottomInterestsEveryone) {
  const Chain chain;  // publish at T2: every process is interested
  const core::FrozenSimConfig config = chain.publish_at(2, 1, 1.0);
  const Audience audience(config, run_broadcast(config));
  EXPECT_EQ(audience.alive, 1110u);
  EXPECT_EQ(audience.parasites, 0u);
  EXPECT_TRUE(audience.all_delivered());
}

TEST(Broadcast, PublishAtMidLevelCreatesParasites) {
  // T1 event: the 1000 T2 subscribers are uninterested but still get it.
  const Chain chain;
  const core::FrozenSimConfig config = chain.publish_at(1, 2, 1.0);
  const core::FrozenRunResult run = run_broadcast(config);
  const Audience audience(config, run);
  EXPECT_EQ(audience.alive, 110u);
  EXPECT_GT(audience.parasites, 900u);  // ~1000 parasite deliveries
  // The parasites are the T2 row's deliveries, which makes that row wrong.
  EXPECT_EQ(run.groups[2].delivered, audience.parasites);
  EXPECT_FALSE(run.groups[2].all_alive_delivered);
}

TEST(Broadcast, PublishAtRootFloodsAllSubscribers) {
  const Chain chain;
  const core::FrozenSimConfig config = chain.publish_at(0, 3, 1.0);
  const Audience audience(config, run_broadcast(config));
  EXPECT_EQ(audience.alive, 10u);
  EXPECT_GT(audience.parasites, 1000u);
}

TEST(Broadcast, MessageComplexityIsNLnN) {
  const Chain chain;
  const core::FrozenRunResult run = run_broadcast(chain.publish_at(2, 4));
  // n=1110: fanout ceil(ln 1110 + 5) = 13; ~14.4k messages.
  const double expected = 1110.0 * 13.0;
  EXPECT_NEAR(static_cast<double>(run.total_messages), expected,
              expected * 0.1);
}

TEST(Broadcast, SendsAreChargedToTheSendersTopic) {
  // Every process gossips with fanout 13 whatever its topic, so each row's
  // sends are about its size times 13, and all of them are intra sends.
  const Chain chain;
  const core::FrozenRunResult run = run_broadcast(chain.publish_at(0, 5, 1.0));
  std::uint64_t total = 0;
  for (std::size_t topic = 0; topic < 3; ++topic) {
    const core::FrozenGroupResult& row = run.groups[topic];
    SCOPED_TRACE(topic);
    EXPECT_EQ(row.size, chain.scenario.group_sizes[topic]);
    EXPECT_EQ(row.inter_sent, 0u);
    EXPECT_EQ(row.intra_sent, 13u * row.delivered);
    total += row.intra_sent;
  }
  EXPECT_EQ(total, run.total_messages);
  EXPECT_EQ(run.expected_deliveries, 10u);
}

TEST(Broadcast, RejectsBadConfigs) {
  const Chain chain;
  core::FrozenSimConfig no_dag;
  EXPECT_THROW((void)run_broadcast(no_dag), std::invalid_argument);

  core::FrozenSimConfig bad_topic = chain.publish_at(2, 1);
  bad_topic.publish_topic = topics::TopicId{9};
  EXPECT_THROW((void)run_broadcast(bad_topic), std::invalid_argument);

  core::FrozenSimConfig wrong_sizes = chain.publish_at(2, 1);
  wrong_sizes.group_sizes = {10, 100};
  EXPECT_THROW((void)run_broadcast(wrong_sizes), std::invalid_argument);

  core::FrozenSimConfig empty_group = chain.publish_at(2, 1);
  empty_group.group_sizes = {10, 0, 1000};
  EXPECT_THROW((void)run_broadcast(empty_group), std::invalid_argument);

  core::FrozenSimConfig churn = chain.publish_at(2, 1);
  churn.failure_mode = core::FrozenFailureMode::kChurn;
  EXPECT_THROW((void)run_broadcast(churn), std::invalid_argument);
}

TEST(Population, TopicMajorLayout) {
  const Chain chain;
  for (std::uint32_t level = 0; level < 3; ++level) {
    const Population population =
        lay_out(chain.publish_at(level, 1), "test");
    ASSERT_EQ(population.size(), 1110u);
    // Processes of T0..T_level are interested: they come first.
    const std::size_t interested[] = {10, 110, 1110};
    EXPECT_EQ(static_cast<std::size_t>(std::count_if(
                  population.topic.begin(), population.topic.end(),
                  [&](std::uint32_t topic) { return topic <= level; })),
              interested[level]);
    EXPECT_EQ(population.topic.front(), 0u);
    EXPECT_EQ(population.topic.back(), 2u);
  }
}

TEST(Broadcast, TablesAreFrozenSimRows) {
  // The same membership algorithm as daMulticast: a flat gossip group's
  // tables are the rows core::build_frozen_tables draws for one group of
  // its size (the whole population for broadcast), with the same seed and
  // params.
  const Chain chain;
  core::FrozenSimConfig config = chain.publish_at(1, 11);
  config.alive_fraction = 0.7;
  const core::GroupTables tables = flat_tables(config, 1110);

  topics::TopicDag flat;
  flat.add_topic("all");
  core::FrozenSimConfig one;
  one.dag = &flat;
  one.group_sizes = {1110};
  one.params = config.params;
  one.alive_fraction = 0.7;
  one.seed = 11;
  const core::GroupTables expected =
      core::build_frozen_tables(one, util::Rng(one.seed)).groups.front();

  EXPECT_EQ(tables.size, 1110u);
  EXPECT_EQ(tables.topic_offsets, expected.topic_offsets);
  EXPECT_EQ(tables.topic_entries, expected.topic_entries);
}

}  // namespace
}  // namespace dam::baselines

#include "baselines/broadcast.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "frozen_chain.hpp"
#include "util/rng.hpp"

namespace dam::baselines {
namespace {

using dam::testing::Chain;

TEST(Broadcast, PublishAtBottomInterestsEveryone) {
  const Chain chain;  // publish at T2: every process is interested
  const auto result = run_broadcast(chain.publish_at(2, 1, 1.0));
  EXPECT_EQ(result.interested_alive, 1110u);
  EXPECT_EQ(result.parasite_deliveries, 0u);
  EXPECT_TRUE(result.all_interested_delivered);
}

TEST(Broadcast, PublishAtMidLevelCreatesParasites) {
  // T1 event: the 1000 T2 subscribers are uninterested but still get it.
  const Chain chain;
  const auto result = run_broadcast(chain.publish_at(1, 2, 1.0));
  EXPECT_EQ(result.interested_alive, 110u);
  EXPECT_GT(result.parasite_deliveries, 900u);  // ~1000 parasite deliveries
}

TEST(Broadcast, PublishAtRootFloodsAllSubscribers) {
  const Chain chain;
  const auto result = run_broadcast(chain.publish_at(0, 3, 1.0));
  EXPECT_EQ(result.interested_alive, 10u);
  EXPECT_GT(result.parasite_deliveries, 1000u);
}

TEST(Broadcast, MessageComplexityIsNLnN) {
  const Chain chain;
  const auto result = run_broadcast(chain.publish_at(2, 4));
  // n=1110: fanout ceil(ln 1110 + 5) = 13; ~14.4k messages.
  const double expected = 1110.0 * 13.0;
  EXPECT_NEAR(static_cast<double>(result.messages_sent), expected,
              expected * 0.1);
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
    EXPECT_EQ(static_cast<std::size_t>(std::count(
                  population.interested.begin(), population.interested.end(),
                  true)),
              interested[level]);
    EXPECT_TRUE(population.interested.front());
    // The publishers are exactly the publish topic's members.
    const std::size_t first[] = {0, 10, 110};
    ASSERT_EQ(population.publishers.size(),
              chain.scenario.group_sizes[level]);
    EXPECT_EQ(population.publishers.front(), first[level]);
    EXPECT_EQ(population.publishers.back(), interested[level] - 1);
  }
}

TEST(Broadcast, TablesAreFrozenSimRows) {
  // The same membership algorithm as daMulticast: broadcast's tables are
  // the rows core::build_frozen_tables draws for one group of the whole
  // population, with the same seed, params and stillborn flags.
  const Chain chain;
  core::FrozenSimConfig config = chain.publish_at(1, 11);
  config.alive_fraction = 0.7;
  const core::GroupTables tables = broadcast_tables(config);

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
  EXPECT_EQ(tables.alive, expected.alive);
  EXPECT_LT(std::count(tables.alive.begin(), tables.alive.end(), true),
            1110);  // the stillborn draw took effect
}

}  // namespace
}  // namespace dam::baselines

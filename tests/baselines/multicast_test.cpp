#include "baselines/multicast.hpp"

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
  // Group T2 = 1000 + 100 + 10 members; all interested, all on T2's row.
  const Audience audience(config, run);
  EXPECT_EQ(audience.alive, 1110u);
  EXPECT_TRUE(audience.all_delivered());
  EXPECT_EQ(run.groups[2].size, 1110u);
  EXPECT_EQ(run.groups[0].size, 0u);
  EXPECT_EQ(run.groups[1].size, 0u);
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

TEST(Multicast, SameMembershipAlgorithmAsDaMulticast) {
  // On a one-level chain the multicast group IS daMulticast's only group:
  // same seed, same tables, same waves.
  const Chain flat({700});
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    core::FrozenSimConfig config = flat.publish_at(0, seed);
    config.alive_fraction = 0.8;
    const core::FrozenRunResult multicast = run_multicast(config);
    const core::FrozenRunResult dam = core::run_frozen_simulation(config);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(multicast.total_messages, dam.total_messages);
    EXPECT_EQ(multicast.groups[0].delivered, dam.groups[0].delivered);
    EXPECT_EQ(multicast.groups[0].alive, dam.groups[0].alive);
    EXPECT_EQ(multicast.rounds, dam.rounds);
  }
}

}  // namespace
}  // namespace dam::baselines

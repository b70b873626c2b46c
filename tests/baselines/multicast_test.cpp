#include "baselines/multicast.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "frozen_chain.hpp"

namespace dam::baselines {
namespace {

using dam::testing::Chain;

TEST(Multicast, NeverProducesParasites) {
  const Chain chain;
  for (std::uint32_t level = 0; level <= 2; ++level) {
    const auto result = run_multicast(chain.publish_at(level, level + 1));
    EXPECT_EQ(result.parasite_deliveries, 0u) << "level " << level;
  }
}

TEST(Multicast, GroupContainsSupertopicSubscribers) {
  const Chain chain;
  const auto result = run_multicast(chain.publish_at(2, 2, 1.0));
  // Group T2 = 1000 + 100 + 10 members; all interested.
  EXPECT_EQ(result.interested_alive, 1110u);
  EXPECT_TRUE(result.all_interested_delivered);
}

TEST(Multicast, RootEventStaysInRootGroup) {
  const Chain chain;
  const auto result = run_multicast(chain.publish_at(0, 3, 1.0));
  EXPECT_EQ(result.interested_alive, 10u);
  EXPECT_TRUE(result.all_interested_delivered);
  // Message count stays proportional to the small group, not the system.
  EXPECT_LT(result.messages_sent, 200u);
}

TEST(Multicast, MessageComplexityMatchesGroupSize) {
  const Chain chain;
  const auto result = run_multicast(chain.publish_at(2, 4));
  const double expected = 1110.0 * 13.0;  // ceil(ln 1110 + 5) = 13
  EXPECT_NEAR(static_cast<double>(result.messages_sent), expected,
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
    const BaselineResult multicast = run_multicast(config);
    const core::FrozenRunResult dam = core::run_frozen_simulation(config);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(multicast.messages_sent, dam.total_messages);
    EXPECT_EQ(multicast.delivered_interested, dam.groups[0].delivered);
    EXPECT_EQ(multicast.interested_alive, dam.groups[0].alive);
    EXPECT_EQ(multicast.rounds, dam.rounds);
  }
}

}  // namespace
}  // namespace dam::baselines

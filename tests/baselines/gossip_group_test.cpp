// Flat gossip over a whole population: run_broadcast on one-group chains,
// and on a two-group chain where the uninterested group still takes part
// (its deliveries count as parasites).
#include "baselines/broadcast.hpp"

#include <gtest/gtest.h>

#include "frozen_chain.hpp"

namespace dam::baselines {
namespace {

using dam::testing::Audience;
using dam::testing::Chain;

TEST(FlatGossip, DeliversToWholePopulationWhenHealthy) {
  const Chain flat({500});
  const core::FrozenSimConfig config = flat.publish_at(0, 1, 1.0);
  const Audience audience(config, run_broadcast(config));
  EXPECT_EQ(audience.alive, 500u);
  EXPECT_EQ(audience.delivered, 500u);
  EXPECT_TRUE(audience.all_delivered());
  EXPECT_EQ(audience.parasites, 0u);
}

TEST(FlatGossip, MessageCountIsNLnN) {
  const Chain flat({1000});
  const core::FrozenRunResult run = run_broadcast(flat.publish_at(0, 2));
  // Everyone infected sends fanout = ceil(ln 1000 + 5) = 12.
  EXPECT_NEAR(static_cast<double>(run.total_messages), 12000.0, 1200.0);
}

TEST(FlatGossip, UninterestedDeliveriesCountAsParasites) {
  // Half the population (T1) is not interested in a T0 event but still
  // participates.
  const Chain chain({200, 200});
  const core::FrozenSimConfig config = chain.publish_at(0, 3, 1.0);
  const Audience audience(config, run_broadcast(config));
  EXPECT_EQ(audience.alive, 200u);
  EXPECT_EQ(audience.delivered, 200u);
  EXPECT_EQ(audience.parasites, 200u);
}

TEST(FlatGossip, StillbornFailuresReduceDeliveries) {
  const Chain flat({600});
  core::FrozenSimConfig config = flat.publish_at(0, 4);
  config.alive_fraction = 0.5;
  const Audience audience(config, run_broadcast(config));
  EXPECT_NEAR(static_cast<double>(audience.alive), 300.0, 50.0);
  EXPECT_LE(audience.delivered, audience.alive);
  EXPECT_GT(audience.delivered, 0u);
}

TEST(FlatGossip, NoAlivePublisherMeansNoTraffic) {
  const Chain flat({100});
  core::FrozenSimConfig config = flat.publish_at(0, 5);
  config.alive_fraction = 0.0;
  const core::FrozenRunResult run = run_broadcast(config);
  EXPECT_EQ(run.total_messages, 0u);
  EXPECT_TRUE(Audience(config, run).all_delivered());  // vacuous: nobody alive
}

TEST(FlatGossip, DynamicPerceptionKeepsPopulationAlive) {
  const Chain flat({300});
  core::FrozenSimConfig config = flat.publish_at(0, 6);
  config.alive_fraction = 0.7;
  config.failure_mode = core::FrozenFailureMode::kDynamicPerception;
  const Audience audience(config, run_broadcast(config));
  EXPECT_EQ(audience.alive, 300u);  // all actually alive
  EXPECT_GT(audience.delivered, 250u);
}

TEST(FlatGossip, DeterministicForSeed) {
  const Chain flat({200});
  const core::FrozenSimConfig config = flat.publish_at(0, 77);
  const core::FrozenRunResult a = run_broadcast(config);
  const core::FrozenRunResult b = run_broadcast(config);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.groups[0].delivered, b.groups[0].delivered);
}

}  // namespace
}  // namespace dam::baselines

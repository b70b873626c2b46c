// Flat gossip over a whole population: run_broadcast on one-group chains,
// and on a two-group chain where the uninterested group still takes part
// (its deliveries count as parasites).
#include "baselines/broadcast.hpp"

#include <gtest/gtest.h>

#include "frozen_chain.hpp"

namespace dam::baselines {
namespace {

using dam::testing::Chain;

TEST(FlatGossip, DeliversToWholePopulationWhenHealthy) {
  const Chain flat({500});
  const auto result = run_broadcast(flat.publish_at(0, 1, 1.0));
  EXPECT_EQ(result.interested_alive, 500u);
  EXPECT_EQ(result.delivered_interested, 500u);
  EXPECT_TRUE(result.all_interested_delivered);
  EXPECT_EQ(result.parasite_deliveries, 0u);
}

TEST(FlatGossip, MessageCountIsNLnN) {
  const Chain flat({1000});
  const auto result = run_broadcast(flat.publish_at(0, 2));
  // Everyone infected sends fanout = ceil(ln 1000 + 5) = 12.
  EXPECT_NEAR(static_cast<double>(result.messages_sent), 12000.0, 1200.0);
}

TEST(FlatGossip, UninterestedDeliveriesCountAsParasites) {
  // Half the population (T1) is not interested in a T0 event but still
  // participates.
  const Chain chain({200, 200});
  const auto result = run_broadcast(chain.publish_at(0, 3, 1.0));
  EXPECT_EQ(result.interested_alive, 200u);
  EXPECT_EQ(result.delivered_interested, 200u);
  EXPECT_EQ(result.parasite_deliveries, 200u);
}

TEST(FlatGossip, StillbornFailuresReduceDeliveries) {
  const Chain flat({600});
  core::FrozenSimConfig config = flat.publish_at(0, 4);
  config.alive_fraction = 0.5;
  const auto result = run_broadcast(config);
  EXPECT_NEAR(static_cast<double>(result.interested_alive), 300.0, 50.0);
  EXPECT_LE(result.delivered_interested, result.interested_alive);
  EXPECT_GT(result.delivered_interested, 0u);
}

TEST(FlatGossip, NoAlivePublisherMeansNoTraffic) {
  const Chain flat({100});
  core::FrozenSimConfig config = flat.publish_at(0, 5);
  config.alive_fraction = 0.0;
  const auto result = run_broadcast(config);
  EXPECT_EQ(result.messages_sent, 0u);
  EXPECT_TRUE(result.all_interested_delivered);  // vacuous: nobody alive
}

TEST(FlatGossip, DynamicPerceptionKeepsPopulationAlive) {
  const Chain flat({300});
  core::FrozenSimConfig config = flat.publish_at(0, 6);
  config.alive_fraction = 0.7;
  config.failure_mode = core::FrozenFailureMode::kDynamicPerception;
  const auto result = run_broadcast(config);
  EXPECT_EQ(result.interested_alive, 300u);  // all actually alive
  EXPECT_GT(result.delivered_interested, 250u);
}

TEST(FlatGossip, DeterministicForSeed) {
  const Chain flat({200});
  const auto a = run_broadcast(flat.publish_at(0, 77));
  const auto b = run_broadcast(flat.publish_at(0, 77));
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.delivered_interested, b.delivered_interested);
}

}  // namespace
}  // namespace dam::baselines

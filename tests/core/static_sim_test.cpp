// run_frozen_simulation on the paper's linear chains (Sec. VII-A): a path
// DAG T0 ⊃ T1 ⊃ T2 built by sim::make_linear_scenario.
#include "core/frozen_sim.hpp"

#include <gtest/gtest.h>

#include "frozen_chain.hpp"

namespace dam::core {
namespace {

using topics::TopicId;
using dam::testing::Chain;

TEST(FrozenSimChain, FullyAliveRunDeliversEverywhere) {
  const Chain chain;
  const auto result = run_frozen_simulation(chain.config(1));
  ASSERT_EQ(result.groups.size(), 3u);
  // psucc = 0.85 still loses individual messages, but with c = 5 the
  // fanout redundancy delivers to everyone with very high probability.
  EXPECT_TRUE(result.all_groups_delivered());
  EXPECT_EQ(result.groups[2].size, 1000u);
  EXPECT_EQ(result.groups[2].alive, 1000u);
  EXPECT_EQ(result.groups[2].delivered, 1000u);
}

TEST(FrozenSimChain, IntraMessagesScaleAsSLnS) {
  const Chain chain;
  const auto result = run_frozen_simulation(chain.config(2));
  // Expected: S · fanout = S · ceil(ln S + c); allow slack for the tail of
  // the epidemic (processes infected but with nobody left to infect still
  // send their fanout).
  const double expected_t2 = 1000.0 * 12.0;
  const double expected_t1 = 100.0 * 10.0;
  const double expected_t0 = 10.0 * 8.0;
  EXPECT_NEAR(static_cast<double>(result.groups[2].intra_sent), expected_t2,
              expected_t2 * 0.10);
  EXPECT_NEAR(static_cast<double>(result.groups[1].intra_sent), expected_t1,
              expected_t1 * 0.15);
  EXPECT_NEAR(static_cast<double>(result.groups[0].intra_sent), expected_t0,
              expected_t0 * 0.30);
}

TEST(FrozenSimChain, IntergroupMessageCountMatchesAnalysis) {
  // nbSuperMsg(T2->T1) = S·psel·pa·z = 1000·(5/1000)·(1/3)·3 = 5 sent,
  // ~4.25 received after psucc. Average over seeds to beat the variance.
  const Chain chain;
  double sent_sum = 0.0;
  double received_sum = 0.0;
  constexpr int kRuns = 300;
  for (int run = 0; run < kRuns; ++run) {
    const auto result = run_frozen_simulation(chain.config(1000 + run));
    sent_sum += static_cast<double>(result.groups[2].inter_sent);
    received_sum += static_cast<double>(result.groups[1].inter_received);
  }
  EXPECT_NEAR(sent_sum / kRuns, 5.0, 0.6);
  EXPECT_NEAR(received_sum / kRuns, 5.0 * 0.85, 0.6);
}

TEST(FrozenSimChain, RootGroupNeverSendsIntergroup) {
  const Chain chain;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto result = run_frozen_simulation(chain.config(seed));
    EXPECT_EQ(result.groups[0].inter_sent, 0u);
    // ... and nothing can arrive from "above" the bottom group.
    EXPECT_EQ(result.groups[2].inter_received, 0u);
  }
}

TEST(FrozenSimChain, StillbornFailuresReduceAliveCounts) {
  const Chain chain;
  const auto result = run_frozen_simulation(chain.config(3, 0.5));
  EXPECT_NEAR(static_cast<double>(result.groups[2].alive), 500.0, 60.0);
  EXPECT_LE(result.groups[2].delivered, result.groups[2].alive);
}

TEST(FrozenSimChain, ZeroAliveFractionMeansNoTraffic) {
  const Chain chain;
  const auto result = run_frozen_simulation(chain.config(4, 0.0));
  EXPECT_EQ(result.total_messages, 0u);
  for (const auto& group : result.groups) {
    EXPECT_EQ(group.alive, 0u);
    EXPECT_TRUE(group.all_alive_delivered);  // vacuously
  }
}

TEST(FrozenSimChain, DynamicPerceptionKeepsEveryoneAlive) {
  const Chain chain;
  FrozenSimConfig config = chain.config(5, 0.6);
  config.failure_mode = FrozenFailureMode::kDynamicPerception;
  const auto result = run_frozen_simulation(config);
  for (const auto& group : result.groups) {
    EXPECT_EQ(group.alive, group.size);
  }
}

TEST(FrozenSimChain, DynamicPerceptionBeatsStillbornReliability) {
  // The paper's headline Fig. 10 vs Fig. 11 comparison: at 60% alive, the
  // weakly-consistent (dynamic) regime delivers to a larger fraction of
  // the root group than the stillborn regime.
  const Chain chain;
  double stillborn_sum = 0.0;
  double dynamic_sum = 0.0;
  constexpr int kRuns = 150;
  for (int run = 0; run < kRuns; ++run) {
    FrozenSimConfig config = chain.config(9000 + run, 0.6);
    stillborn_sum += run_frozen_simulation(config).groups[0].delivery_ratio();
    config.failure_mode = FrozenFailureMode::kDynamicPerception;
    dynamic_sum += run_frozen_simulation(config).groups[0].delivery_ratio();
  }
  EXPECT_GT(dynamic_sum / kRuns, stillborn_sum / kRuns + 0.05);
}

TEST(FrozenSimChain, PublishInAMiddleGroup) {
  const Chain chain;
  FrozenSimConfig config = chain.config(6);
  config.publish_topic = TopicId{1};  // publish in T1
  const auto result = run_frozen_simulation(config);
  // T2 (a subgroup) must never receive an event of its supertopic.
  EXPECT_EQ(result.groups[2].delivered, 0u);
  EXPECT_EQ(result.groups[2].intra_sent, 0u);
  EXPECT_GT(result.groups[1].delivered, 0u);
  EXPECT_GT(result.groups[0].delivered, 0u);
}

TEST(FrozenSimChain, SingleGroupDegeneratesToPlainGossip) {
  const Chain chain({500});
  const auto result = run_frozen_simulation(chain.config(7));
  ASSERT_EQ(result.groups.size(), 1u);
  EXPECT_EQ(result.groups[0].inter_sent, 0u);
  EXPECT_EQ(result.groups[0].delivered, 500u);
}

TEST(FrozenSimChain, PerLevelParamsApply) {
  const Chain chain;
  FrozenSimConfig config = chain.config(8);
  TopicParams quiet;     // root level: tiny fanout
  quiet.c = 0.0;
  TopicParams chatty;    // other levels: default
  config.params = {quiet, chatty};
  EXPECT_DOUBLE_EQ(params_for_topic(config, 0).c, 0.0);
  EXPECT_DOUBLE_EQ(params_for_topic(config, 1).c, 5.0);
  EXPECT_DOUBLE_EQ(params_for_topic(config, 2).c, 5.0);  // reuses last
  const auto result = run_frozen_simulation(config);
  // Root fanout = ceil(ln 10 + 0) = 3 per process; 10 processes -> <= 30.
  EXPECT_LE(result.groups[0].intra_sent, 30u);
}

TEST(FrozenSimChain, LatencyFieldsTrackPropagation) {
  // The intergroup hop legitimately fails in ~1.5% of runs at psucc=0.85;
  // check the latency invariants on every run, and demand that most runs
  // have a full chain of timestamps.
  const Chain chain;
  int full_chains = 0;
  for (std::uint64_t seed = 50; seed < 70; ++seed) {
    const auto result = run_frozen_simulation(chain.config(seed));
    // Publisher's group always starts at round 0.
    ASSERT_TRUE(result.groups[2].first_delivery_round.has_value());
    EXPECT_EQ(*result.groups[2].first_delivery_round, 0u);
    for (const auto& group : result.groups) {
      ASSERT_EQ(group.first_delivery_round.has_value(),
                group.last_delivery_round.has_value());
      ASSERT_EQ(group.first_delivery_round.has_value(), group.delivered > 0);
      if (!group.first_delivery_round) continue;
      EXPECT_GE(*group.last_delivery_round, *group.first_delivery_round);
      EXPECT_LE(*group.last_delivery_round, result.rounds);
    }
    if (result.groups[1].first_delivery_round &&
        result.groups[0].first_delivery_round) {
      // Upward monotonicity: T0 cannot be reached before T1.
      EXPECT_GE(*result.groups[1].first_delivery_round, 1u);
      EXPECT_GE(*result.groups[0].first_delivery_round,
                *result.groups[1].first_delivery_round);
      ++full_chains;
    }
  }
  EXPECT_GE(full_chains, 17);  // >= 85% of the 20 seeds
}

TEST(FrozenSimChain, LatencyUnsetWhenNothingArrives) {
  const Chain chain;
  FrozenSimConfig config = chain.config(56);
  config.publish_topic = TopicId{1};  // T2 never receives
  const auto result = run_frozen_simulation(config);
  EXPECT_FALSE(result.groups[2].first_delivery_round.has_value());
  EXPECT_FALSE(result.groups[2].last_delivery_round.has_value());
}

TEST(FrozenSimChain, DeterministicForSameSeed) {
  const Chain chain;
  const auto a = run_frozen_simulation(chain.config(99, 0.7));
  const auto b = run_frozen_simulation(chain.config(99, 0.7));
  ASSERT_EQ(a.groups.size(), b.groups.size());
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.rounds, b.rounds);
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_EQ(a.groups[i].intra_sent, b.groups[i].intra_sent);
    EXPECT_EQ(a.groups[i].delivered, b.groups[i].delivered);
  }
}

TEST(FrozenSimChain, MoreAliveMoreMessages) {
  // Messages sent grow with the alive fraction (Fig. 8's x axis).
  const Chain chain;
  auto avg_messages = [&](double alive_fraction) {
    double sum = 0.0;
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
      sum += static_cast<double>(
          run_frozen_simulation(chain.config(200 + seed, alive_fraction))
              .groups[2]
              .intra_sent);
    }
    return sum / 30.0;
  };
  const double at30 = avg_messages(0.3);
  const double at60 = avg_messages(0.6);
  const double at100 = avg_messages(1.0);
  EXPECT_LT(at30, at60);
  EXPECT_LT(at60, at100);
}

}  // namespace
}  // namespace dam::core

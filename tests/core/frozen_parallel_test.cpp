// Thread-count-independence contract of the frozen engine
// (FrozenSimConfig::threads): chunking, per-chunk RNG streams, and the
// chunk-order merge are pure functions of the config, so every threads
// value must produce BIT-IDENTICAL tables and run counters. The sizes
// below force several kRowChunk table chunks (S > 4096) and multi-chunk
// wave frontiers (> 1024 coords per round), so the merge path really runs.
#include <gtest/gtest.h>

#include "core/frozen_sim.hpp"
#include "topics/dag.hpp"

namespace dam::core {
namespace {

FrozenSimConfig base_config(const topics::TopicDag& dag) {
  FrozenSimConfig config;
  config.dag = &dag;
  config.seed = 0x5EED6;
  return config;
}

void make_chain(topics::TopicDag& dag) {
  const auto root = dag.add_topic("T0");
  const auto mid = dag.add_topic("T1");
  const auto leaf = dag.add_topic("T2");
  dag.add_super(mid, root);
  dag.add_super(leaf, mid);
}

void expect_same_run(const FrozenRunResult& a, const FrozenRunResult& b,
                     unsigned threads) {
  ASSERT_EQ(a.groups.size(), b.groups.size());
  EXPECT_EQ(a.rounds, b.rounds) << "threads=" << threads;
  EXPECT_EQ(a.total_messages, b.total_messages) << "threads=" << threads;
  for (std::size_t topic = 0; topic < a.groups.size(); ++topic) {
    const FrozenGroupResult& lhs = a.groups[topic];
    const FrozenGroupResult& rhs = b.groups[topic];
    EXPECT_EQ(lhs.alive, rhs.alive) << "topic " << topic;
    EXPECT_EQ(lhs.intra_sent, rhs.intra_sent) << "topic " << topic;
    EXPECT_EQ(lhs.inter_sent, rhs.inter_sent) << "topic " << topic;
    EXPECT_EQ(lhs.inter_received, rhs.inter_received) << "topic " << topic;
    EXPECT_EQ(lhs.delivered, rhs.delivered) << "topic " << topic;
    EXPECT_EQ(lhs.duplicate_deliveries, rhs.duplicate_deliveries)
        << "topic " << topic;
    EXPECT_EQ(lhs.all_alive_delivered, rhs.all_alive_delivered)
        << "topic " << topic;
    EXPECT_EQ(lhs.first_delivery_round, rhs.first_delivery_round)
        << "topic " << topic;
    EXPECT_EQ(lhs.last_delivery_round, rhs.last_delivery_round)
        << "topic " << topic;
  }
}

TEST(FrozenParallel, StillbornRunIsBitIdenticalForAnyThreadCount) {
  topics::TopicDag dag;
  make_chain(dag);
  FrozenSimConfig config = base_config(dag);
  config.group_sizes = {50, 500, 10000};
  config.publish_topic = topics::TopicId{2};
  config.alive_fraction = 0.8;
  config.failure_mode = FrozenFailureMode::kStillborn;

  config.threads = 1;
  const FrozenRunResult reference = run_frozen_simulation(config);
  EXPECT_GT(reference.total_messages, 0u);
  EXPECT_GT(reference.groups[2].delivered, 7000u);
  for (const unsigned threads : {2u, 4u, 8u}) {
    config.threads = threads;
    expect_same_run(reference, run_frozen_simulation(config), threads);
  }
}

TEST(FrozenParallel, DynamicPerceptionAndChurnRegimesAreAlsoIndependent) {
  // These regimes draw per-send aliveness coins (dynamic perception) or
  // consult the outage schedule at the current round (churn) inside the
  // chunk tasks — both must shard cleanly too.
  topics::TopicDag dag;
  make_chain(dag);
  for (const FrozenFailureMode mode :
       {FrozenFailureMode::kDynamicPerception, FrozenFailureMode::kChurn}) {
    FrozenSimConfig config = base_config(dag);
    config.group_sizes = {50, 500, 6000};
    config.publish_topic = topics::TopicId{2};
    config.alive_fraction = 0.9;
    config.failure_mode = mode;

    config.threads = 1;
    const FrozenRunResult reference = run_frozen_simulation(config);
    for (const unsigned threads : {2u, 8u}) {
      config.threads = threads;
      expect_same_run(reference, run_frozen_simulation(config), threads);
    }
  }
}

TEST(FrozenParallel, TablesAreBitIdenticalForAnyThreadCount) {
  topics::TopicDag dag;
  make_chain(dag);
  FrozenSimConfig config = base_config(dag);
  config.group_sizes = {50, 500, 10000};
  config.alive_fraction = 0.7;  // exercise the alive-flag chunk fill too
  config.failure_mode = FrozenFailureMode::kStillborn;

  config.threads = 1;
  util::Rng rng1(config.seed);
  const FrozenTables reference = build_frozen_tables(config, rng1);
  for (const unsigned threads : {2u, 4u, 8u}) {
    config.threads = threads;
    util::Rng rng(config.seed);
    const FrozenTables tables = build_frozen_tables(config, rng);
    ASSERT_EQ(tables.groups.size(), reference.groups.size());
    for (std::size_t topic = 0; topic < tables.groups.size(); ++topic) {
      const GroupTables& lhs = reference.groups[topic];
      const GroupTables& rhs = tables.groups[topic];
      EXPECT_EQ(lhs.alive, rhs.alive) << "topic " << topic;
      EXPECT_EQ(lhs.topic_offsets, rhs.topic_offsets) << "topic " << topic;
      EXPECT_EQ(lhs.topic_entries, rhs.topic_entries) << "topic " << topic;
      EXPECT_EQ(lhs.super_offsets, rhs.super_offsets) << "topic " << topic;
      EXPECT_EQ(lhs.super_entries, rhs.super_entries) << "topic " << topic;
    }
  }
}

TEST(FrozenParallel, BuildLeavesTheCallerStreamUntouched) {
  // The build only forks the run RNG; everything after the build
  // (churn schedules, publisher pick) must see the same stream position
  // regardless of table sizes.
  topics::TopicDag dag;
  dag.add_topic("giant");
  FrozenSimConfig config = base_config(dag);
  config.group_sizes = {5000};
  config.threads = 2;
  util::Rng rng(config.seed);
  (void)build_frozen_tables(config, rng);
  util::Rng untouched(config.seed);
  EXPECT_EQ(rng(), untouched());
}

}  // namespace
}  // namespace dam::core

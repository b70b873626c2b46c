// Engine-agreement regression: the frozen-table engine (core/frozen_sim),
// reached through the static_sim adapter on a path DAG, must reproduce its
// pinned per-seed counters bit-for-bit — same seed ⇒ same per-group
// intra_sent / inter_sent / inter_received / delivered and same round
// count — on the Fig. 8/9 configurations (paper setting, S={10,100,1000});
// the seeds are the ones the figure benches derive. The adapters must also
// agree exactly with direct frozen_sim calls.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/dag_sim.hpp"
#include "core/frozen_sim.hpp"
#include "core/static_sim.hpp"
#include "topics/dag.hpp"

namespace dam::core {
namespace {

struct GoldenGroup {
  std::uint64_t intra_sent;
  std::uint64_t inter_sent;
  std::uint64_t inter_received;
  std::size_t delivered;
};

struct GoldenRun {
  double alive;
  std::uint64_t seed;
  StaticFailureMode mode;
  std::size_t rounds;
  GoldenGroup groups[3];  // levels 0 (root) .. 2 (bottom)
};

// Captured from the engine's one stream. Seeds follow the fig8/fig9 bench
// derivations base + run·{977,613} + alive·1000.
constexpr GoldenRun kGolden[] = {
    {1.0, 4864ULL, StaticFailureMode::kStillborn, 12,
     {{80ULL, 0ULL, 2ULL, 10}, {1000ULL, 4ULL, 1ULL, 100},
      {12000ULL, 2ULL, 0ULL, 1000}}},
    {1.0, 6704ULL, StaticFailureMode::kStillborn, 9,
     {{80ULL, 0ULL, 3ULL, 10}, {1000ULL, 3ULL, 2ULL, 100},
      {12000ULL, 3ULL, 0ULL, 1000}}},
    {0.7, 11403ULL, StaticFailureMode::kStillborn, 6,
     {{0ULL, 0ULL, 0ULL, 0}, {0ULL, 0ULL, 0ULL, 0},
      {8340ULL, 1ULL, 0ULL, 695}}},
    {0.5, 11108ULL, StaticFailureMode::kStillborn, 8,
     {{0ULL, 0ULL, 0ULL, 0}, {0ULL, 0ULL, 0ULL, 0},
      {6000ULL, 0ULL, 0ULL, 500}}},
    {0.3, 22727ULL, StaticFailureMode::kStillborn, 9,
     {{0ULL, 0ULL, 0ULL, 0}, {0ULL, 0ULL, 0ULL, 0},
      {3288ULL, 1ULL, 0ULL, 274}}},
    {0.6, 12345ULL, StaticFailureMode::kDynamicPerception, 11,
     {{80ULL, 0ULL, 2ULL, 10}, {980ULL, 6ULL, 3ULL, 98},
      {11988ULL, 3ULL, 0ULL, 999}}},
};

StaticSimConfig config_of(const GoldenRun& golden) {
  StaticSimConfig config;  // defaults = paper setting {10,100,1000}
  config.alive_fraction = golden.alive;
  config.seed = golden.seed;
  config.failure_mode = golden.mode;
  return config;
}

TEST(EngineAgreement, EngineReproducesPinnedStaticCounters) {
  for (const GoldenRun& golden : kGolden) {
    const StaticRunResult result = run_static_simulation(config_of(golden));
    SCOPED_TRACE("seed " + std::to_string(golden.seed));
    EXPECT_EQ(result.rounds, golden.rounds);
    ASSERT_EQ(result.groups.size(), 3u);
    for (int level = 0; level < 3; ++level) {
      SCOPED_TRACE("level " + std::to_string(level));
      const StaticGroupResult& group = result.groups[level];
      const GoldenGroup& expected = golden.groups[level];
      EXPECT_EQ(group.intra_sent, expected.intra_sent);
      EXPECT_EQ(group.inter_sent, expected.inter_sent);
      EXPECT_EQ(group.inter_received, expected.inter_received);
      EXPECT_EQ(group.delivered, expected.delivered);
    }
  }
}

TEST(EngineAgreement, StaticAdapterIsAThinFacadeOverFrozenSim) {
  // Feeding the frozen engine a hand-built path DAG must match the adapter
  // exactly — there is no decision logic left in static_sim.cpp.
  for (const GoldenRun& golden : kGolden) {
    topics::TopicDag dag;
    const auto t0 = dag.add_topic("T0");
    const auto t1 = dag.add_topic("T1");
    const auto t2 = dag.add_topic("T2");
    dag.add_super(t1, t0);
    dag.add_super(t2, t1);

    FrozenSimConfig frozen;
    frozen.dag = &dag;
    frozen.group_sizes = {10, 100, 1000};
    frozen.alive_fraction = golden.alive;
    frozen.failure_mode = golden.mode == StaticFailureMode::kStillborn
                              ? FrozenFailureMode::kStillborn
                              : FrozenFailureMode::kDynamicPerception;
    frozen.publish_topic = t2;
    frozen.seed = golden.seed;
    const FrozenRunResult direct = run_frozen_simulation(frozen);

    const StaticRunResult adapted = run_static_simulation(config_of(golden));
    SCOPED_TRACE("seed " + std::to_string(golden.seed));
    ASSERT_EQ(direct.groups.size(), adapted.groups.size());
    EXPECT_EQ(direct.rounds, adapted.rounds);
    EXPECT_EQ(direct.total_messages, adapted.total_messages);
    for (std::size_t level = 0; level < direct.groups.size(); ++level) {
      EXPECT_EQ(direct.groups[level].intra_sent,
                adapted.groups[level].intra_sent);
      EXPECT_EQ(direct.groups[level].inter_sent,
                adapted.groups[level].inter_sent);
      EXPECT_EQ(direct.groups[level].inter_received,
                adapted.groups[level].inter_received);
      EXPECT_EQ(direct.groups[level].delivered,
                adapted.groups[level].delivered);
      EXPECT_EQ(direct.groups[level].first_delivery_round,
                adapted.groups[level].first_delivery_round);
      EXPECT_EQ(direct.groups[level].last_delivery_round,
                adapted.groups[level].last_delivery_round);
    }
  }
}

TEST(EngineAgreement, DagAdapterMatchesFrozenSimOnADiamond) {
  topics::TopicDag dag;
  const auto a = dag.add_topic("A");
  const auto m1 = dag.add_topic("M1");
  const auto m2 = dag.add_topic("M2");
  const auto b = dag.add_topic("B");
  dag.add_super(m1, a);
  dag.add_super(m2, a);
  dag.add_super(b, m1);
  dag.add_super(b, m2);

  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    DagSimConfig legacy;
    legacy.dag = &dag;
    legacy.group_sizes = {10, 40, 40, 200};
    legacy.publish_topic = b;
    legacy.seed = seed;

    FrozenSimConfig frozen;
    frozen.dag = &dag;
    frozen.group_sizes = legacy.group_sizes;
    frozen.params = {legacy.params};
    frozen.publish_topic = b;
    frozen.seed = seed;

    const DagRunResult from_adapter = run_dag_simulation(legacy);
    const FrozenRunResult direct = run_frozen_simulation(frozen);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(from_adapter.total_messages, direct.total_messages);
    EXPECT_EQ(from_adapter.rounds, direct.rounds);
    for (std::size_t topic = 0; topic < direct.groups.size(); ++topic) {
      EXPECT_EQ(from_adapter.groups[topic].delivered,
                direct.groups[topic].delivered);
      EXPECT_EQ(from_adapter.groups[topic].duplicate_deliveries,
                direct.groups[topic].duplicate_deliveries);
      EXPECT_EQ(from_adapter.groups[topic].all_alive_delivered,
                direct.groups[topic].all_alive_delivered);
    }
  }
}

}  // namespace
}  // namespace dam::core

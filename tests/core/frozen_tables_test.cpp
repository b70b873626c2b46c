// Structural soundness of the frozen table builder (build_frozen_tables):
// every topic row is full width, distinct, in range and never self; every
// supertopic row is distinct and in range of its parent. Checked across
// all three failure regimes, a multi-parent DAG (slot-major super draws),
// and degenerate groups of size 1 and 2.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/frozen_sim.hpp"
#include "topics/dag.hpp"
#include "util/rng.hpp"

namespace dam::core {
namespace {

topics::TopicDag make_path() {
  topics::TopicDag dag;
  const auto t0 = dag.add_topic("T0");
  const auto t1 = dag.add_topic("T1");
  const auto t2 = dag.add_topic("T2");
  dag.add_super(t1, t0);
  dag.add_super(t2, t1);
  return dag;
}

topics::TopicDag make_diamond() {
  topics::TopicDag dag;
  const auto a = dag.add_topic("A");
  const auto m1 = dag.add_topic("M1");
  const auto m2 = dag.add_topic("M2");
  const auto b = dag.add_topic("B");
  dag.add_super(m1, a);
  dag.add_super(m2, a);
  dag.add_super(b, m1);
  dag.add_super(b, m2);
  return dag;
}

FrozenSimConfig base_config(const topics::TopicDag& dag,
                            std::vector<std::size_t> sizes) {
  FrozenSimConfig config;
  config.dag = &dag;
  config.group_sizes = std::move(sizes);
  config.publish_topic =
      topics::DagTopicId{static_cast<std::uint32_t>(dag.size() - 1)};
  return config;
}

void expect_sound(const FrozenSimConfig& config) {
  const topics::TopicDag& dag = *config.dag;
  util::Rng rng(config.seed);
  const FrozenTables tables = build_frozen_tables(config, rng);
  ASSERT_EQ(tables.groups.size(), dag.size());
  for (std::uint32_t topic = 0; topic < dag.size(); ++topic) {
    SCOPED_TRACE("topic " + std::to_string(topic));
    const GroupTables& group = tables.groups[topic];
    const TopicParams& params = params_for_topic(config, topic);
    const auto& parents = dag.supers(topics::DagTopicId{topic});
    ASSERT_EQ(group.size, config.group_sizes[topic]);
    ASSERT_EQ(group.parent_count, parents.size());
    const std::size_t view_size =
        std::min(params.view_capacity(group.size), group.size - 1);
    for (std::size_t i = 0; i < group.size; ++i) {
      const auto row = group.topic_row(i);
      ASSERT_EQ(row.size(), view_size);  // full width
      std::set<std::uint32_t> seen;
      for (const std::uint32_t entry : row) {
        EXPECT_LT(entry, group.size);
        EXPECT_NE(entry, static_cast<std::uint32_t>(i));  // never self
        seen.insert(entry);
      }
      EXPECT_EQ(seen.size(), row.size());  // distinct
      for (std::size_t slot = 0; slot < parents.size(); ++slot) {
        const std::size_t parent_size =
            config.group_sizes[parents[slot].value];
        const auto super_row = group.super_row(i, slot);
        ASSERT_EQ(super_row.size(), std::min(params.z, parent_size));
        const std::set<std::uint32_t> super_seen(super_row.begin(),
                                                 super_row.end());
        EXPECT_EQ(super_seen.size(), super_row.size());
        for (const std::uint32_t entry : super_row) {
          EXPECT_LT(entry, parent_size);
        }
      }
    }
  }
}

TEST(FrozenTables, FastModeBuildsStructurallySoundTables) {
  const topics::TopicDag path = make_path();
  const struct {
    FrozenFailureMode mode;
    double alive;
  } regimes[] = {
      {FrozenFailureMode::kStillborn, 0.7},
      {FrozenFailureMode::kDynamicPerception, 0.6},
      {FrozenFailureMode::kChurn, 1.0},
  };
  for (const auto& regime : regimes) {
    for (std::uint64_t seed : {1ULL, 42ULL, 0xF19ULL}) {
      SCOPED_TRACE("mode " + std::to_string(static_cast<int>(regime.mode)) +
                   " seed " + std::to_string(seed));
      FrozenSimConfig config = base_config(path, {10, 100, 1000});
      config.failure_mode = regime.mode;
      config.alive_fraction = regime.alive;
      config.seed = seed;
      expect_sound(config);
    }
  }

  const topics::TopicDag diamond = make_diamond();
  for (std::uint64_t seed : {3ULL, 17ULL}) {
    SCOPED_TRACE("diamond seed " + std::to_string(seed));
    FrozenSimConfig config = base_config(diamond, {10, 40, 40, 200});
    config.alive_fraction = 0.8;
    config.seed = seed;
    expect_sound(config);
  }

  // S=1 (empty topic table), S=2 (view == S-1, every other member), and z
  // larger than the parent group (the whole parent group).
  topics::TopicDag tiny;
  const auto t0 = tiny.add_topic("T0");
  const auto t1 = tiny.add_topic("T1");
  tiny.add_super(t1, t0);
  FrozenSimConfig config = base_config(tiny, {2, 1});
  config.params[0].z = 5;  // > both group sizes
  config.alive_fraction = 0.5;
  config.seed = 9;
  expect_sound(config);
}

TEST(FrozenTables, FastModeRunsAllRegimesEndToEnd) {
  // A full simulation over the tables must deliver (psucc=0.85 defaults,
  // everyone alive).
  const topics::TopicDag dag = make_path();
  for (const FrozenFailureMode mode :
       {FrozenFailureMode::kStillborn, FrozenFailureMode::kDynamicPerception,
        FrozenFailureMode::kChurn}) {
    FrozenSimConfig config = base_config(dag, {10, 100, 1000});
    config.failure_mode = mode;
    config.seed = 11;
    const FrozenRunResult result = run_frozen_simulation(config);
    EXPECT_GT(result.total_messages, 0u);
    EXPECT_GT(result.groups[2].delivered, 900u);
  }
}

}  // namespace
}  // namespace dam::core

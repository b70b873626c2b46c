// workload/driver: scenario binding (tree check, identity topic ids),
// dynamic-run determinism, multi-publication collection, churn/join replay,
// and the steady rivals' share of the tree and params checks.
#include "workload/driver.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "baselines/steady.hpp"
#include "sim/scenario.hpp"

namespace dam::workload {
namespace {

/// Event messages (intra- plus intergroup) a run sent, off its timeline.
std::uint64_t event_messages(const DynamicRunResult& r) {
  const util::Timeline::Counters totals = r.timeline.totals();
  return totals.event_sends + totals.inter_sends;
}

sim::Scenario small_dynamic() {
  sim::Scenario scenario =
      sim::make_linear_scenario("dyn", "test", {5, 10, 20});
  scenario.engine = sim::EngineKind::kDynamic;
  scenario.workload.arrival.kind = ArrivalKind::kScheduled;
  scenario.workload.arrival.count = 2;
  scenario.workload.arrival.horizon = 20;
  scenario.workload.engine.warmup_rounds = 2;
  scenario.workload.engine.drain_rounds = 15;
  scenario.base_seed = 0xD17;
  return scenario;
}

TEST(BindScenario, SingleRootMapsOntoHierarchyRoot) {
  const sim::Scenario scenario = small_dynamic();
  const DynamicScenarioBinding binding = bind_scenario(scenario);
  ASSERT_EQ(binding.topic_ids.size(), 3u);
  // Scenario topic i is TopicId{i}; T0 is the DAG root, so its processes
  // never run FIND_SUPER_CONTACT, exactly like the paper's top group.
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(binding.topic_ids[i], topics::TopicId{i});
  }
  EXPECT_TRUE(binding.hierarchy.is_root(binding.topic_ids[0]));
  EXPECT_EQ(binding.hierarchy.super(binding.topic_ids[1]),
            binding.topic_ids[0]);
  EXPECT_EQ(binding.hierarchy.super(binding.topic_ids[2]),
            binding.topic_ids[1]);
}

TEST(BindScenario, ForestRootsAreDagRoots) {
  sim::Scenario scenario = small_dynamic();
  scenario.topic_names = {"A", "B"};
  scenario.super_edges = {};  // two disconnected roots
  scenario.group_sizes = {5, 5};
  scenario.publish_topic = 1;
  const DynamicScenarioBinding binding = bind_scenario(scenario);
  // Each root group is a root of the DAG: nobody searches for a
  // memberless supergroup above it.
  EXPECT_TRUE(binding.hierarchy.is_root(binding.topic_ids[0]));
  EXPECT_TRUE(binding.hierarchy.is_root(binding.topic_ids[1]));
  EXPECT_NE(binding.topic_ids[0], binding.topic_ids[1]);
}

sim::Scenario diamond_of(sim::Scenario scenario) {
  scenario.topic_names = {"A", "M1", "M2", "B"};
  scenario.super_edges = {{1, 0}, {2, 0}, {3, 1}, {3, 2}};  // B: two parents
  scenario.group_sizes = {5, 5, 5, 5};
  return scenario;
}

TEST(BindScenario, RejectsDagsAndShortSizes) {
  EXPECT_THROW(bind_scenario(diamond_of(small_dynamic())),
               std::invalid_argument);

  sim::Scenario short_sizes = small_dynamic();
  short_sizes.group_sizes = {5};
  EXPECT_THROW(bind_scenario(short_sizes), std::invalid_argument);
}

TEST(RunDynamic, RejectsDags) {
  const sim::Scenario diamond = diamond_of(small_dynamic());
  const topics::TopicDag dag = diamond.build_dag();
  EXPECT_THROW((void)run_dynamic_simulation(diamond, dag, 1.0, 0),
               std::invalid_argument);
}

TEST(RunDynamic, RejectsHeterogeneousPerTopicParams) {
  // The dynamic engine configures every node identically; silently
  // flattening a per-topic params vector would mislabel results.
  sim::Scenario scenario = small_dynamic();
  core::TopicParams lossy;
  lossy.psucc = 0.3;
  scenario.params = {core::TopicParams{}, core::TopicParams{}, lossy};
  const topics::TopicDag dag = scenario.build_dag();
  EXPECT_THROW((void)run_dynamic_simulation(scenario, dag, 1.0, 0),
               std::invalid_argument);
  // A uniform multi-entry vector is fine.
  scenario.params = {core::TopicParams{}, core::TopicParams{}};
  const DynamicRunResult result =
      run_dynamic_simulation(scenario, dag, 1.0, 0);
  EXPECT_GT(event_messages(result), 0u);
}

TEST(SteadyBaseline, RejectsDagsThroughTheSharedCheck) {
  // The steady rivals route along one supertopic per group; the replay
  // harness they share with the protocol rejects DAGs through the same
  // topics::require_tree as the sweep runner.
  sim::Scenario diamond = diamond_of(small_dynamic());
  diamond.engine = sim::EngineKind::kBaselineTree;
  EXPECT_THROW((void)baselines::run_steady_baseline(
                   diamond, diamond.build_dag(), 1.0, 0),
               std::invalid_argument);
  EXPECT_THROW(topics::require_tree(diamond.build_dag(), "test"),
               std::invalid_argument);
  EXPECT_NO_THROW(topics::require_tree(small_dynamic().build_dag(), "test"));
}

TEST(SteadyBaseline, RejectsHeterogeneousPerTopicParams) {
  sim::Scenario scenario = small_dynamic();
  scenario.engine = sim::EngineKind::kBaselineGossip;
  core::TopicParams lossy;
  lossy.psucc = 0.3;
  scenario.params = {core::TopicParams{}, lossy};
  EXPECT_THROW((void)baselines::run_steady_baseline(
                   scenario, scenario.build_dag(), 1.0, 0),
               std::invalid_argument);
}

TEST(RunDynamic, DeterministicForSameCell) {
  const sim::Scenario scenario = small_dynamic();
  const topics::TopicDag dag = scenario.build_dag();
  const DynamicRunResult a = run_dynamic_simulation(scenario, dag, 1.0, 3);
  const DynamicRunResult b = run_dynamic_simulation(scenario, dag, 1.0, 3);
  EXPECT_EQ(event_messages(a), event_messages(b));
  EXPECT_EQ(a.timeline.totals().control_sends, b.timeline.totals().control_sends);
  EXPECT_EQ(a.publications, b.publications);
  EXPECT_DOUBLE_EQ(a.event_reliability, b.event_reliability);
  EXPECT_DOUBLE_EQ(a.mean_latency, b.mean_latency);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].intra_sent, b.groups[g].intra_sent);
    EXPECT_EQ(a.groups[g].inter_sent, b.groups[g].inter_sent);
    EXPECT_DOUBLE_EQ(a.groups[g].delivery_ratio, b.groups[g].delivery_ratio);
  }
  const DynamicRunResult c = run_dynamic_simulation(scenario, dag, 1.0, 4);
  EXPECT_NE(event_messages(a), event_messages(c));  // other cell, other run
}

TEST(RunDynamic, CollectsPublicationsReliabilityAndLatency) {
  const sim::Scenario scenario = small_dynamic();
  const topics::TopicDag dag = scenario.build_dag();
  const DynamicRunResult result =
      run_dynamic_simulation(scenario, dag, 1.0, 0);
  EXPECT_EQ(result.publications, 2u);
  EXPECT_GT(result.event_reliability, 0.5);
  EXPECT_LE(result.event_reliability, 1.0);
  EXPECT_GT(result.mean_latency, 0.0);
  EXPECT_GE(result.max_latency, result.mean_latency);
  EXPECT_GT(event_messages(result), 0u);
  EXPECT_GT(result.timeline.totals().control_sends, 0u);
  // warmup + horizon + drain rounds were executed.
  EXPECT_EQ(result.rounds, 2u + 20u + 15u);
  ASSERT_EQ(result.groups.size(), 3u);
  for (const DynamicGroupResult& group : result.groups) {
    EXPECT_EQ(group.alive, group.size);  // alive fraction 1, no churn
    EXPECT_GT(group.ratio_samples, 0u);
  }
  EXPECT_FALSE(result.measured_link);  // auto-wired run
}

TEST(RunDynamic, StillbornFractionShrinksAliveCounts) {
  const sim::Scenario scenario = small_dynamic();
  const topics::TopicDag dag = scenario.build_dag();
  const DynamicRunResult result =
      run_dynamic_simulation(scenario, dag, 0.5, 1);
  std::size_t alive = 0;
  std::size_t total = 0;
  for (const DynamicGroupResult& group : result.groups) {
    alive += group.alive;
    total += group.size;
  }
  EXPECT_EQ(total, 35u);
  EXPECT_LT(alive, total);
  EXPECT_GT(alive, 0u);
}

TEST(RunDynamic, JoinsGrowGroupsAndChurnShrinksAlive) {
  sim::Scenario scenario = small_dynamic();
  scenario.workload.churn.joins = 12;
  scenario.workload.churn.leave_fraction = 0.4;
  scenario.workload.churn.crash_fraction = 0.5;
  scenario.workload.churn.crash_length = 3;
  const topics::TopicDag dag = scenario.build_dag();
  const DynamicRunResult result =
      run_dynamic_simulation(scenario, dag, 1.0, 2);
  std::size_t members = 0;
  std::size_t alive = 0;
  for (const DynamicGroupResult& group : result.groups) {
    members += group.size;
    alive += group.alive;
  }
  EXPECT_EQ(members, 35u + 12u);  // every join spawned a subscriber
  EXPECT_LT(alive, members);      // leavers are down at run end
}

TEST(RunDynamic, ColdStartMeasuresBootstrapLink) {
  sim::Scenario scenario = small_dynamic();
  scenario.workload.arrival.count = 0;
  scenario.workload.arrival.horizon = 16;
  scenario.workload.engine.auto_wire_super_tables = false;
  scenario.workload.engine.warmup_rounds = 0;
  scenario.workload.engine.drain_rounds = 0;
  const topics::TopicDag dag = scenario.build_dag();
  const DynamicRunResult result =
      run_dynamic_simulation(scenario, dag, 1.0, 0);
  EXPECT_TRUE(result.measured_link);
  EXPECT_GT(result.rounds_to_link, 0.0);
  EXPECT_LE(result.rounds_to_link, 16.0);
  EXPECT_GT(result.linked_fraction, 0.9);
  EXPECT_GT(result.control_at_link, 0.0);
  EXPECT_EQ(result.publications, 0u);
}

}  // namespace
}  // namespace dam::workload

// The scenario layer: registry presets, topology building, and config
// derivation. Execution goes through exp::run_sweep (tests/exp covers the
// runner itself).
#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "exp/grid.hpp"
#include "exp/runner.hpp"

namespace dam::sim {
namespace {

TEST(ScenarioRegistry, HasAtLeastEightUniquePresets) {
  const auto& registry = scenario_registry();
  EXPECT_GE(registry.size(), 8u);
  std::unordered_set<std::string> names;
  for (const Scenario& scenario : registry) {
    EXPECT_TRUE(names.insert(scenario.name).second)
        << "duplicate preset " << scenario.name;
    EXPECT_FALSE(scenario.summary.empty()) << scenario.name;
  }
}

TEST(ScenarioRegistry, SummariesAreOneLine) {
  // Summaries carry the figure expectations; --list-scenarios prints one
  // per row.
  for (const Scenario& scenario : scenario_registry()) {
    EXPECT_EQ(scenario.summary.find('\n'), std::string::npos) << scenario.name;
  }
}

TEST(ScenarioRegistry, EveryPresetIsWellFormed) {
  for (const Scenario& scenario : scenario_registry()) {
    SCOPED_TRACE(scenario.name);
    const topics::TopicDag dag = scenario.build_dag();
    EXPECT_EQ(dag.size(), scenario.topic_names.size());
    EXPECT_EQ(scenario.group_sizes.size(), dag.size());
    EXPECT_LT(scenario.publish_topic, dag.size());
    EXPECT_FALSE(scenario.alive_sweep.empty());
    EXPECT_GT(scenario.runs, 0);
    for (const core::TopicParams& params : scenario.params) {
      EXPECT_NO_THROW(params.validate());
    }
  }
}

TEST(ScenarioRegistry, EveryPresetRunsEndToEnd) {
  // One cheap run per preset (single sweep point, few runs) must complete
  // and produce sane aggregates — this is what backs
  // `damlab --scenario=<name>` for every listed name.
  for (const Scenario& preset : scenario_registry()) {
    SCOPED_TRACE(preset.name);
    Scenario scenario = preset;
    scenario.alive_sweep = {scenario.alive_sweep.back()};
    scenario.runs = 3;
    // This smoke checks plumbing, not scale: cap the population so the
    // giant presets don't dominate the suite's wall (the dedicated scale
    // tests and CI's giant-dynamic run own the 1e5/1e6 sizes).
    std::size_t population = 0;
    for (const std::size_t size : scenario.group_sizes) population += size;
    if (population > 20000) {
      exp::apply_grid_point(
          scenario,
          {{"scale", 20000.0 / static_cast<double>(population)}});
    }
    const exp::SweepResult sweep = exp::run_sweep(scenario);
    ASSERT_EQ(sweep.points.size(), 1u);
    ASSERT_EQ(sweep.points[0].groups.size(), scenario.topic_names.size());
    EXPECT_EQ(sweep.points[0].rounds.count(), 3u);
    EXPECT_EQ(sweep.total_runs, 3u);
    const exp::ScenarioPoint& point = sweep.points[0];
    if (is_stream_engine(scenario.engine) &&
        point.publications.mean() == 0.0) {
      // A traffic-free preset (bootstrap-cold) measures the cold-start
      // link instead of deliveries.
      EXPECT_GT(point.linked_fraction.mean(), 0.0);
    } else if (scenario.alive_sweep[0] > 0.0 &&
               scenario.failure_mode != core::FrozenFailureMode::kChurn) {
      // The publish group always delivers at least the publisher when any
      // member is alive.
      EXPECT_GT(point.groups[scenario.publish_topic].delivery_ratio.mean(),
                0.0);
    }
  }
}

TEST(ScenarioRegistry, ChurnPresetsUseTheChurnSchedule) {
  for (const char* name : {"churn-light", "churn-heavy"}) {
    SCOPED_TRACE(name);
    const Scenario* preset = find_scenario(name);
    ASSERT_NE(preset, nullptr);
    EXPECT_EQ(preset->failure_mode, core::FrozenFailureMode::kChurn);
    EXPECT_GT(preset->churn.outages, 0u);
    EXPECT_GT(preset->churn.outage_length, 0u);
    EXPECT_GT(preset->churn.horizon, 0u);
  }
  // "heavy" must actually be heavier than "light".
  const Scenario* light = find_scenario("churn-light");
  const Scenario* heavy = find_scenario("churn-heavy");
  EXPECT_GT(heavy->churn.outages * heavy->churn.outage_length,
            light->churn.outages * light->churn.outage_length);
}

TEST(ScenarioRegistry, DagLinearIsTheDiamondsChainControl) {
  // One invocation over both presets compares the topologies run for run:
  // everything but the shape is shared, and the chain's one mid group
  // holds the diamond's two.
  const Scenario* linear = find_scenario("dag-linear");
  const Scenario* diamond = find_scenario("dag-diamond");
  ASSERT_NE(linear, nullptr);
  ASSERT_NE(diamond, nullptr);
  EXPECT_EQ(linear->base_seed, diamond->base_seed);
  EXPECT_EQ(linear->runs, diamond->runs);
  EXPECT_EQ(linear->alive_sweep, diamond->alive_sweep);
  ASSERT_EQ(linear->params.size(), 1u);
  ASSERT_EQ(diamond->params.size(), 1u);
  const core::TopicParams& pl = linear->params[0];
  const core::TopicParams& pd = diamond->params[0];
  EXPECT_EQ(pl.psucc, pd.psucc);
  EXPECT_EQ(pl.g, pd.g);
  EXPECT_EQ(pl.a, pd.a);
  EXPECT_EQ(pl.z, pd.z);
  EXPECT_EQ(pl.b, pd.b);
  EXPECT_EQ(pl.c, pd.c);
  EXPECT_EQ(linear->group_sizes.back(), diamond->group_sizes.back());
  EXPECT_EQ(linear->publish_topic + 1, linear->group_sizes.size());
  EXPECT_EQ(diamond->publish_topic + 1, diamond->group_sizes.size());
  ASSERT_EQ(linear->group_sizes.size(), 3u);
  ASSERT_EQ(diamond->group_sizes.size(), 4u);
  EXPECT_EQ(linear->group_sizes[1], 100u);
  EXPECT_EQ(diamond->group_sizes[1] + diamond->group_sizes[2], 100u);
}

TEST(ScenarioRegistry, RecoveryPairDiffersOnlyInRecovery) {
  const Scenario* base = find_scenario("recovery-base");
  const Scenario* recovery = find_scenario("recovery");
  ASSERT_NE(base, nullptr);
  ASSERT_NE(recovery, nullptr);
  EXPECT_FALSE(base->workload.engine.recovery_enabled);
  EXPECT_TRUE(recovery->workload.engine.recovery_enabled);
  // With recovery switched off, the recovery preset must replay the base
  // preset exactly: same topology, stream, seeds and engine knobs.
  Scenario off = *recovery;
  off.workload.engine.recovery_enabled = false;
  Scenario control = *base;
  off.runs = control.runs = 2;
  const exp::SweepResult a = exp::run_sweep(off, {.jobs = 1});
  const exp::SweepResult b = exp::run_sweep(control, {.jobs = 1});
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t pt = 0; pt < a.points.size(); ++pt) {
    EXPECT_EQ(a.points[pt].publications.mean(),
              b.points[pt].publications.mean());
    EXPECT_EQ(a.points[pt].event_reliability.mean(),
              b.points[pt].event_reliability.mean());
    EXPECT_EQ(a.points[pt].total_messages.mean(),
              b.points[pt].total_messages.mean());
    EXPECT_EQ(a.points[pt].msg_control_sends.mean(),
              b.points[pt].msg_control_sends.mean());
    EXPECT_EQ(a.points[pt].rounds.mean(), b.points[pt].rounds.mean());
  }
  EXPECT_EQ(recovery->runs, base->runs);
}

TEST(Scenario, FindScenarioLooksUpByName) {
  EXPECT_NE(find_scenario("fig9"), nullptr);
  EXPECT_EQ(find_scenario("fig9")->name, "fig9");
  EXPECT_EQ(find_scenario("no-such-scenario"), nullptr);
}

TEST(Scenario, MakeLinearScenarioBuildsARootFirstPath) {
  const Scenario scenario =
      make_linear_scenario("path", "a path", {10, 100, 1000});
  EXPECT_EQ(scenario.topic_names,
            (std::vector<std::string>{"T0", "T1", "T2"}));
  EXPECT_EQ(scenario.publish_topic, 2u);
  const topics::TopicDag dag = scenario.build_dag();
  EXPECT_TRUE(dag.is_root(topics::TopicId{0}));
  EXPECT_TRUE(dag.includes(topics::TopicId{0}, topics::TopicId{2}));
  EXPECT_FALSE(dag.includes(topics::TopicId{2}, topics::TopicId{0}));
}

TEST(Scenario, BadEdgeIndexThrows) {
  Scenario scenario = make_linear_scenario("bad", "bad", {10, 20});
  scenario.super_edges.emplace_back(5, 0);
  EXPECT_THROW(scenario.build_dag(), std::invalid_argument);
}

TEST(Scenario, ConfigForDerivesSeedFromPointAndRun) {
  const Scenario scenario = make_linear_scenario("seed", "seed", {10, 100});
  const topics::TopicDag dag = scenario.build_dag();
  const auto a = scenario.config_for(dag, 0.5, 3);
  const auto b = scenario.config_for(dag, 0.5, 3);
  EXPECT_EQ(a.seed, b.seed);  // pure function of (base_seed, point, run)
  EXPECT_NE(a.seed, scenario.config_for(dag, 0.5, 4).seed);
  EXPECT_NE(a.seed, scenario.config_for(dag, 0.6, 3).seed);
}

TEST(Scenario, RunsAreDeterministicPerSeed) {
  Scenario scenario = make_linear_scenario("det", "determinism", {10, 100});
  scenario.runs = 5;
  scenario.alive_sweep = {0.8};
  const auto a = exp::run_sweep(scenario);
  const auto b = exp::run_sweep(scenario);
  ASSERT_EQ(a.points.size(), b.points.size());
  EXPECT_DOUBLE_EQ(a.points[0].total_messages.mean(),
                   b.points[0].total_messages.mean());
  EXPECT_DOUBLE_EQ(a.points[0].groups[1].intra_sent.mean(),
                   b.points[0].groups[1].intra_sent.mean());
}

TEST(Scenario, VacuousRunsAreExcludedFromReliability) {
  Scenario scenario = make_linear_scenario("dead", "all dead", {5, 10});
  scenario.alive_sweep = {0.0};
  scenario.runs = 4;
  const auto sweep = exp::run_sweep(scenario);
  // Nobody alive: no delivery-ratio samples at all, rather than fake 1.0s.
  EXPECT_EQ(sweep.points[0].groups[0].delivery_ratio.count(), 0u);
  EXPECT_EQ(sweep.points[0].groups[1].all_alive_delivered.trials, 0u);
}

}  // namespace
}  // namespace dam::sim

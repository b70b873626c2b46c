// exp/runner: the jobs-independence guarantee — the aggregate of a sweep
// is BIT-identical for any worker count. The pool itself is tested in
// tests/util/parallel_test.cpp.
#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/broadcast.hpp"
#include "baselines/hierarchical.hpp"
#include "sim/scenario.hpp"

namespace dam::exp {
namespace {

/// Bitwise comparison of two sweep aggregates (throughput fields excluded:
/// wall time legitimately varies).
void expect_identical(const SweepResult& a, const SweepResult& b) {
  EXPECT_EQ(a.total_runs, b.total_runs);
  EXPECT_EQ(a.total_events, b.total_events);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t pt = 0; pt < a.points.size(); ++pt) {
    const ScenarioPoint& pa = a.points[pt];
    const ScenarioPoint& pb = b.points[pt];
    EXPECT_EQ(pa.alive_fraction, pb.alive_fraction);
    EXPECT_EQ(pa.total_messages.count(), pb.total_messages.count());
    EXPECT_EQ(pa.total_messages.mean(), pb.total_messages.mean());
    EXPECT_EQ(pa.total_messages.variance(), pb.total_messages.variance());
    EXPECT_EQ(pa.rounds.mean(), pb.rounds.mean());
    ASSERT_EQ(pa.groups.size(), pb.groups.size());
    for (std::size_t topic = 0; topic < pa.groups.size(); ++topic) {
      const ScenarioGroupStats& ga = pa.groups[topic];
      const ScenarioGroupStats& gb = pb.groups[topic];
      EXPECT_EQ(ga.intra_sent.mean(), gb.intra_sent.mean());
      EXPECT_EQ(ga.intra_sent.variance(), gb.intra_sent.variance());
      EXPECT_EQ(ga.intra_sent.min(), gb.intra_sent.min());
      EXPECT_EQ(ga.intra_sent.max(), gb.intra_sent.max());
      EXPECT_EQ(ga.inter_sent.mean(), gb.inter_sent.mean());
      EXPECT_EQ(ga.inter_received.mean(), gb.inter_received.mean());
      EXPECT_EQ(ga.delivery_ratio.count(), gb.delivery_ratio.count());
      EXPECT_EQ(ga.delivery_ratio.mean(), gb.delivery_ratio.mean());
      EXPECT_EQ(ga.delivery_ratio.variance(), gb.delivery_ratio.variance());
      EXPECT_EQ(ga.all_alive_delivered.successes,
                gb.all_alive_delivered.successes);
      EXPECT_EQ(ga.all_alive_delivered.trials, gb.all_alive_delivered.trials);
      EXPECT_EQ(ga.any_inter_received.successes,
                gb.any_inter_received.successes);
      EXPECT_EQ(ga.duplicate_deliveries.mean(),
                gb.duplicate_deliveries.mean());
      EXPECT_EQ(ga.first_delivery_round.count(),
                gb.first_delivery_round.count());
      EXPECT_EQ(ga.first_delivery_round.mean(),
                gb.first_delivery_round.mean());
      EXPECT_EQ(ga.last_delivery_round.mean(), gb.last_delivery_round.mean());
      EXPECT_EQ(ga.control_sent.mean(), gb.control_sent.mean());
    }
    // Dynamic-lane aggregates (zero samples on frozen sweeps, but they
    // must still merge identically).
    EXPECT_EQ(pa.publications.count(), pb.publications.count());
    EXPECT_EQ(pa.publications.mean(), pb.publications.mean());
    EXPECT_EQ(pa.event_reliability.mean(), pb.event_reliability.mean());
    EXPECT_EQ(pa.event_reliability.variance(),
              pb.event_reliability.variance());
    EXPECT_EQ(pa.delivery_latency.mean(), pb.delivery_latency.mean());
    EXPECT_EQ(pa.delivery_latency.variance(), pb.delivery_latency.variance());
    EXPECT_EQ(pa.max_latency.mean(), pb.max_latency.mean());
    EXPECT_EQ(pa.max_latency.max(), pb.max_latency.max());
    EXPECT_EQ(pa.msg_control_sends.mean(), pb.msg_control_sends.mean());
    EXPECT_EQ(pa.rounds_to_link.mean(), pb.rounds_to_link.mean());
    EXPECT_EQ(pa.linked_fraction.mean(), pb.linked_fraction.mean());
    EXPECT_EQ(pa.control_at_link.mean(), pb.control_at_link.mean());
  }
}

sim::Scenario small_scenario() {
  sim::Scenario scenario =
      sim::make_linear_scenario("pool", "pool test", {10, 80});
  scenario.alive_sweep = {0.4, 0.7, 1.0};
  scenario.runs = 37;  // deliberately not a multiple of the shard count
  scenario.base_seed = 0xBEEF;
  return scenario;
}

TEST(Runner, AggregatesAreBitIdenticalForAnyJobCount) {
  const sim::Scenario scenario = small_scenario();
  const SweepResult serial = run_sweep(scenario, {.jobs = 1});
  for (unsigned jobs : {2u, 4u, 8u}) {
    SCOPED_TRACE(jobs);
    const SweepResult parallel = run_sweep(scenario, {.jobs = jobs});
    EXPECT_EQ(parallel.jobs, jobs);
    expect_identical(serial, parallel);
  }
}

TEST(Runner, ChurnScenarioIsAlsoJobsIndependent) {
  // The churn regime draws its outage schedule from the engine seed, so it
  // must shard exactly like the other regimes.
  const sim::Scenario* preset = sim::find_scenario("churn-heavy");
  ASSERT_NE(preset, nullptr);
  sim::Scenario scenario = *preset;
  scenario.runs = 21;
  expect_identical(run_sweep(scenario, {.jobs = 1}),
                   run_sweep(scenario, {.jobs = 8}));
}

TEST(Runner, DynamicLaneIsAlsoJobsIndependent) {
  // The dynamic engine (workload/driver through core/system) runs through
  // the same sharded reduction; its seeds derive from (base_seed, point,
  // run) via stream_rng, so the bit-identity guarantee must carry over.
  const sim::Scenario* preset = sim::find_scenario("zipf-storm");
  ASSERT_NE(preset, nullptr);
  sim::Scenario scenario = *preset;
  scenario.runs = 5;
  scenario.alive_sweep = {0.8, 1.0};
  const SweepResult serial = run_sweep(scenario, {.jobs = 1});
  expect_identical(serial, run_sweep(scenario, {.jobs = 4}));
  // And the dynamic lane actually collected dynamic aggregates.
  EXPECT_GT(serial.points.front().publications.count(), 0u);
  EXPECT_GT(serial.points.front().delivery_latency.mean(), 0.0);
  EXPECT_GT(serial.points.front().msg_control_sends.mean(), 0.0);
}

TEST(Runner, DynamicChurnPresetIsJobsIndependent) {
  // Joins, leaves and crash/recover all ride the replay; none may depend
  // on worker identity.
  const sim::Scenario* preset = sim::find_scenario("churn-subscribe-heavy");
  ASSERT_NE(preset, nullptr);
  sim::Scenario scenario = *preset;
  scenario.runs = 4;
  expect_identical(run_sweep(scenario, {.jobs = 1}),
                   run_sweep(scenario, {.jobs = 8}));
}

TEST(Runner, DynamicLaneRejectsDagTopologies) {
  const sim::Scenario* diamond = sim::find_scenario("dag-diamond");
  ASSERT_NE(diamond, nullptr);
  sim::Scenario scenario = *diamond;
  scenario.engine = sim::EngineKind::kDynamic;
  scenario.runs = 1;
  EXPECT_THROW((void)run_sweep(scenario, {.jobs = 1}), std::invalid_argument);
}

TEST(Runner, FrozenBaselinesRunThroughTheSweep) {
  // The Sec. VI-E baselines ride the frozen lane: bit-identical for any
  // job count, and each row aggregates exactly the direct run_* calls.
  using Run = core::FrozenRunResult (*)(const core::FrozenSimConfig&);
  const std::pair<sim::EngineKind, Run> kinds[] = {
      {sim::EngineKind::kBroadcast, &baselines::run_broadcast},
      {sim::EngineKind::kMulticast, &baselines::run_multicast},
      {sim::EngineKind::kHierarchical, &baselines::run_hierarchical}};
  for (const auto& [engine, run] : kinds) {
    SCOPED_TRACE(static_cast<int>(engine));
    sim::Scenario scenario = small_scenario();
    scenario.engine = engine;
    scenario.publish_topic = 0;  // the 80 T1 members are uninterested
    scenario.runs = 9;
    const SweepResult serial = run_sweep(scenario, {.jobs = 1});
    expect_identical(serial, run_sweep(scenario, {.jobs = 4}));
    const topics::TopicDag dag = scenario.build_dag();
    for (std::size_t pt = 0; pt < scenario.alive_sweep.size(); ++pt) {
      const double alive = scenario.alive_sweep[pt];
      ScenarioPoint direct = make_point(scenario, alive);
      for (int r = 0; r < scenario.runs; ++r) {
        accumulate_run(direct, run(scenario.config_for(dag, alive, r)));
      }
      const ScenarioPoint& swept = serial.points[pt];
      EXPECT_DOUBLE_EQ(swept.total_messages.mean(),
                       direct.total_messages.mean());
      EXPECT_DOUBLE_EQ(swept.rounds.mean(), direct.rounds.mean());
      EXPECT_EQ(swept.expected_deliveries, direct.expected_deliveries);
      for (std::size_t topic = 0; topic < direct.groups.size(); ++topic) {
        const ScenarioGroupStats& a = swept.groups[topic];
        const ScenarioGroupStats& b = direct.groups[topic];
        EXPECT_DOUBLE_EQ(a.intra_sent.mean(), b.intra_sent.mean());
        EXPECT_DOUBLE_EQ(a.inter_sent.mean(), b.inter_sent.mean());
        EXPECT_DOUBLE_EQ(a.duplicate_deliveries.mean(),
                         b.duplicate_deliveries.mean());
        EXPECT_EQ(a.delivery_ratio.count(), b.delivery_ratio.count());
        EXPECT_DOUBLE_EQ(a.delivery_ratio.mean(), b.delivery_ratio.mean());
        EXPECT_EQ(a.all_alive_delivered.successes,
                  b.all_alive_delivered.successes);
        EXPECT_EQ(a.all_alive_delivered.trials, b.all_alive_delivered.trials);
      }
    }
    EXPECT_GT(serial.points.back().total_messages.mean(), 0.0);
  }
}

TEST(Runner, FrozenLaneGradesAlikeWhenNobodyCanPublish) {
  // T1's one member is dead, T0 (interested) and T2 (uninterested) have
  // alive members: no engine owes or sends anything, T0 missed the event,
  // T1 and T2 are correct. All four draw one start per run, so they reach
  // this mute run at the same run index.
  using Run = core::FrozenRunResult (*)(const core::FrozenSimConfig&);
  const Run kinds[] = {&core::run_frozen_simulation, &baselines::run_broadcast,
                       &baselines::run_multicast,
                       &baselines::run_hierarchical};
  sim::Scenario scenario = sim::make_linear_scenario("mute", "", {20, 1, 20});
  scenario.publish_topic = 1;
  const topics::TopicDag dag = scenario.build_dag();
  std::vector<int> mute_run;
  for (const Run run : kinds) {
    core::FrozenRunResult result;
    int r = 0;
    for (; r < 64; ++r) {
      result = run(scenario.config_for(dag, 0.5, r));
      if (result.groups[1].alive == 0) break;
    }
    mute_run.push_back(r);
    ASSERT_EQ(result.groups[1].alive, 0u);
    ASSERT_GT(result.groups[0].alive, 0u);
    ASSERT_GT(result.groups[2].alive, 0u);
    EXPECT_EQ(result.expected_deliveries, 0u);
    EXPECT_EQ(result.total_messages, 0u);
    EXPECT_TRUE(result.latency_sketch.empty());
    EXPECT_FALSE(result.groups[0].all_alive_delivered);
    EXPECT_TRUE(result.groups[1].all_alive_delivered);
    EXPECT_TRUE(result.groups[2].all_alive_delivered);
  }
  EXPECT_EQ(mute_run, std::vector<int>(std::size(kinds), mute_run.front()));
}

TEST(Runner, FrozenLaneEnginesShareEveryRunStart) {
  // Common random numbers for Sec. VI-E: run k of every baseline sees
  // frozen_sim's dead processes and publisher, so every row counts the
  // same members and the same alive ones, and an event is owed to the
  // same alive audience (0 when nobody could publish).
  using Run = core::FrozenRunResult (*)(const core::FrozenSimConfig&);
  const Run rivals[] = {&baselines::run_broadcast, &baselines::run_multicast,
                        &baselines::run_hierarchical};
  sim::Scenario scenario = sim::make_linear_scenario("pair", "",
                                                     {10, 100, 1000});
  const topics::TopicDag dag = scenario.build_dag();
  for (std::uint32_t level = 0; level < 3; ++level) {
    scenario.publish_topic = level;
    for (const double alive : {0.3, 0.5, 0.8}) {
      for (int r = 0; r < 20; ++r) {
        SCOPED_TRACE("T" + std::to_string(level) + " alive " +
                     std::to_string(alive) + " run " + std::to_string(r));
        const core::FrozenSimConfig config =
            scenario.config_for(dag, alive, r);
        const core::FrozenRunResult dam = core::run_frozen_simulation(config);
        for (const Run run : rivals) {
          const core::FrozenRunResult rival = run(config);
          ASSERT_EQ(rival.groups.size(), dam.groups.size());
          for (std::size_t topic = 0; topic < dam.groups.size(); ++topic) {
            EXPECT_EQ(rival.groups[topic].size, dam.groups[topic].size);
            EXPECT_EQ(rival.groups[topic].alive, dam.groups[topic].alive);
          }
          EXPECT_EQ(rival.expected_deliveries, dam.expected_deliveries);
        }
      }
    }
  }
}

TEST(Runner, MoreShardsThanRunsIsFine) {
  sim::Scenario scenario = small_scenario();
  scenario.runs = 3;  // fewer than the 32 shards per point
  const SweepResult sweep = run_sweep(scenario, {.jobs = 4});
  EXPECT_EQ(sweep.total_runs, 3u * scenario.alive_sweep.size());
  for (const ScenarioPoint& point : sweep.points) {
    EXPECT_EQ(point.rounds.count(), 3u);
  }
}

TEST(Runner, CountsEveryRunExactlyOnce) {
  const sim::Scenario scenario = small_scenario();
  const SweepResult sweep = run_sweep(scenario, {.jobs = 5});
  EXPECT_EQ(sweep.total_runs, 37u * 3u);
  for (const ScenarioPoint& point : sweep.points) {
    EXPECT_EQ(point.total_messages.count(), 37u);
  }
}

TEST(Runner, RejectsBadScenarios) {
  sim::Scenario scenario = small_scenario();
  scenario.runs = 0;
  EXPECT_THROW(run_sweep(scenario), std::invalid_argument);
}

}  // namespace
}  // namespace dam::exp

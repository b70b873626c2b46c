// Sweep-level face of the intra-run parallelism contract: exp::run_sweep
// aggregates are BIT-identical for every Scenario::threads value, the
// default included — on both engines — and the resolved count is
// reported in SweepResult::threads for the bench JSON. Mirrors the --jobs
// independence suite in runner_test.cpp; the two knobs are orthogonal, so
// one test crosses them.
#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include "sim/scenario.hpp"

namespace dam::exp {
namespace {

/// Bitwise comparison of the aggregates that matter for the goldens
/// (throughput fields excluded: wall time legitimately varies).
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
      EXPECT_EQ(ga.inter_sent.mean(), gb.inter_sent.mean());
      EXPECT_EQ(ga.inter_received.mean(), gb.inter_received.mean());
      EXPECT_EQ(ga.delivery_ratio.mean(), gb.delivery_ratio.mean());
      EXPECT_EQ(ga.delivery_ratio.variance(), gb.delivery_ratio.variance());
      EXPECT_EQ(ga.duplicate_deliveries.mean(),
                gb.duplicate_deliveries.mean());
      EXPECT_EQ(ga.first_delivery_round.mean(),
                gb.first_delivery_round.mean());
      EXPECT_EQ(ga.last_delivery_round.mean(), gb.last_delivery_round.mean());
    }
    EXPECT_EQ(pa.publications.count(), pb.publications.count());
    EXPECT_EQ(pa.publications.mean(), pb.publications.mean());
    EXPECT_EQ(pa.event_reliability.mean(), pb.event_reliability.mean());
    EXPECT_EQ(pa.event_reliability.variance(),
              pb.event_reliability.variance());
    EXPECT_EQ(pa.delivery_latency.mean(), pb.delivery_latency.mean());
    EXPECT_EQ(pa.max_latency.max(), pb.max_latency.max());
    // Latency-SLO layer: the streaming sketch (centroids included), the
    // quantiles read off it, and the deadline curve are part of the same
    // bit-identity contract.
    EXPECT_TRUE(pa.latency_sketch.centroids() == pb.latency_sketch.centroids());
    EXPECT_EQ(pa.latency_sketch.count(), pb.latency_sketch.count());
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      EXPECT_EQ(pa.latency_sketch.quantile(q), pb.latency_sketch.quantile(q));
    }
    EXPECT_EQ(pa.expected_deliveries, pb.expected_deliveries);
    for (const std::size_t deadline : kDeadlineGrid) {
      EXPECT_EQ(pa.deadline_fraction(deadline), pb.deadline_fraction(deadline));
    }
    EXPECT_EQ(pa.msg_event_sends.mean(), pb.msg_event_sends.mean());
    EXPECT_EQ(pa.msg_control_sends.mean(), pb.msg_control_sends.mean());
    EXPECT_EQ(pa.msg_delivers.mean(), pb.msg_delivers.mean());
  }
}

TEST(Threads, FrozenSweepIsBitIdenticalForAnyThreadCount) {
  // giant-flat shrunk to keep the suite fast, still multi-chunk: one group
  // of 6000 forces > 1 table chunk (kRowChunk = 4096) and multi-chunk
  // wave frontiers (kWaveChunk = 1024).
  const sim::Scenario* preset = sim::find_scenario("giant-flat");
  ASSERT_NE(preset, nullptr);
  sim::Scenario scenario = *preset;
  scenario.group_sizes = {6000};
  scenario.runs = 3;
  scenario.alive_sweep = {0.85, 1.0};

  scenario.threads = 1;
  const SweepResult reference = run_sweep(scenario, {.jobs = 1});
  EXPECT_EQ(reference.threads, 1u);
  EXPECT_GT(reference.points.back().total_messages.mean(), 0.0);
  for (const unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    scenario.threads = threads;
    const SweepResult parallel = run_sweep(scenario, {.jobs = 1});
    EXPECT_EQ(parallel.threads, threads);
    expect_identical(reference, parallel);
  }
}

TEST(Threads, DynamicSweepIsBitIdenticalForAnyThreadCount) {
  // zipf-storm: Poisson arrivals and Zipf skew over the full
  // message-passing engine, with the chunked spawn-batch fill.
  const sim::Scenario* preset = sim::find_scenario("zipf-storm");
  ASSERT_NE(preset, nullptr);
  sim::Scenario scenario = *preset;
  scenario.runs = 4;
  scenario.alive_sweep = {0.85, 1.0};

  scenario.threads = 1;
  const SweepResult reference = run_sweep(scenario, {.jobs = 1});
  EXPECT_GT(reference.points.front().publications.count(), 0u);
  EXPECT_GT(reference.points.front().delivery_latency.mean(), 0.0);
  EXPECT_FALSE(reference.points.front().latency_sketch.empty());
  for (const unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    scenario.threads = threads;
    expect_identical(reference, run_sweep(scenario, {.jobs = 1}));
  }
}

TEST(Threads, OmittedThreadsMatchesEveryWorkerCount) {
  // One stream per engine: leaving threads at its default must run the
  // same stream as any explicit worker count, in every frozen failure
  // regime and on the dynamic lane.
  for (const char* name : {"fig9", "fig11", "churn-heavy", "zipf-storm"}) {
    SCOPED_TRACE(name);
    const sim::Scenario* preset = sim::find_scenario(name);
    ASSERT_NE(preset, nullptr);
    sim::Scenario scenario = *preset;
    scenario.runs = 4;
    scenario.alive_sweep = {0.7, 1.0};
    const SweepResult omitted = run_sweep(scenario, {.jobs = 1});
    EXPECT_GT(omitted.total_events, 0u);
    for (const unsigned threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(threads);
      scenario.threads = threads;
      expect_identical(omitted, run_sweep(scenario, {.jobs = 1}));
    }
  }
}

TEST(Threads, ThreadsComposesWithJobs) {
  // --jobs and --threads are orthogonal: crossing them must not perturb
  // the aggregate either.
  const sim::Scenario* preset = sim::find_scenario("zipf-storm");
  ASSERT_NE(preset, nullptr);
  sim::Scenario scenario = *preset;
  scenario.runs = 3;
  scenario.alive_sweep = {1.0};
  scenario.threads = 2;
  const SweepResult reference = run_sweep(scenario, {.jobs = 1});
  expect_identical(reference, run_sweep(scenario, {.jobs = 4}));
}

TEST(Threads, ResolvedCountIsReported) {
  sim::Scenario scenario =
      sim::make_linear_scenario("pool", "threads reporting", {10, 80});
  scenario.runs = 2;

  // The default is one worker.
  EXPECT_EQ(run_sweep(scenario, {.jobs = 1}).threads, 1u);

  // 0 = hardware concurrency, resolved to at least one worker.
  scenario.threads = 0;
  EXPECT_GE(run_sweep(scenario, {.jobs = 1}).threads, 1u);
}

}  // namespace
}  // namespace dam::exp

// Latency-SLO observability contract at the sweep level: the streaming
// latency sketch, the percentiles read off it, and the
// reliability-vs-deadline curve are bit-identical for every --jobs value
// (cross-run fan-out) on BOTH engines — the shard-merge determinism the
// runner already guarantees for the Welford aggregates extends to the
// sketch. threads_test.cpp covers the orthogonal --threads knob with the
// same predicate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "exp/runner.hpp"
#include "sim/scenario.hpp"

namespace dam::exp {
namespace {

/// Bitwise equality of every latency-SLO output of two sweeps.
void expect_slo_identical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t pt = 0; pt < a.points.size(); ++pt) {
    SCOPED_TRACE(pt);
    const ScenarioPoint& pa = a.points[pt];
    const ScenarioPoint& pb = b.points[pt];
    ASSERT_TRUE(pa.latency_sketch.centroids() ==
                pb.latency_sketch.centroids());
    EXPECT_EQ(pa.latency_sketch.count(), pb.latency_sketch.count());
    EXPECT_EQ(pa.latency_sketch.min(), pb.latency_sketch.min());
    EXPECT_EQ(pa.latency_sketch.max(), pb.latency_sketch.max());
    for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(pa.latency_sketch.quantile(q), pb.latency_sketch.quantile(q))
          << "q=" << q;
    }
    EXPECT_EQ(pa.expected_deliveries, pb.expected_deliveries);
    for (const std::size_t deadline : kDeadlineGrid) {
      EXPECT_EQ(pa.deadline_fraction(deadline), pb.deadline_fraction(deadline))
          << "deadline=" << deadline;
    }
  }
}

/// The curve is a CDF against a fixed denominator: within [0, 1] and
/// non-decreasing in the deadline; the sketch count bounds its numerator.
void expect_curve_well_formed(const ScenarioPoint& point) {
  double previous = 0.0;
  for (const std::size_t deadline : kDeadlineGrid) {
    const double fraction = point.deadline_fraction(deadline);
    EXPECT_GE(fraction, previous) << "deadline=" << deadline;
    EXPECT_LE(fraction, 1.0) << "deadline=" << deadline;
    previous = fraction;
  }
}

TEST(LatencySlo, FrozenSweepQuantilesBitIdenticalAcrossJobs) {
  const sim::Scenario* preset = sim::find_scenario("fig9");
  ASSERT_NE(preset, nullptr);
  sim::Scenario scenario = *preset;
  scenario.runs = 8;
  scenario.alive_sweep = {0.5, 1.0};

  const SweepResult reference = run_sweep(scenario, {.jobs = 1});
  ASSERT_FALSE(reference.points.back().latency_sketch.empty());
  EXPECT_GT(reference.points.back().expected_deliveries, 0u);
  for (const ScenarioPoint& point : reference.points) {
    expect_curve_well_formed(point);
  }
  for (const unsigned jobs : {2u, 4u, 8u}) {
    SCOPED_TRACE(jobs);
    expect_slo_identical(reference, run_sweep(scenario, {.jobs = jobs}));
  }
}

TEST(LatencySlo, DynamicSweepQuantilesBitIdenticalAcrossJobs) {
  const sim::Scenario* preset = sim::find_scenario("zipf-storm");
  ASSERT_NE(preset, nullptr);
  sim::Scenario scenario = *preset;
  scenario.runs = 4;
  scenario.alive_sweep = {0.85, 1.0};

  const SweepResult reference = run_sweep(scenario, {.jobs = 1});
  ASSERT_FALSE(reference.points.front().latency_sketch.empty());
  EXPECT_GT(reference.points.front().expected_deliveries, 0u);
  for (const ScenarioPoint& point : reference.points) {
    expect_curve_well_formed(point);
  }
  for (const unsigned jobs : {2u, 4u, 8u}) {
    SCOPED_TRACE(jobs);
    expect_slo_identical(reference, run_sweep(scenario, {.jobs = jobs}));
  }
}

TEST(LatencySlo, FrozenSketchAgreesWithGroupRoundBounds) {
  // Cross-check the sketch against independent per-group aggregates: every
  // latency lies within [first, last] delivery round of some group, so the
  // sketch extremes are bounded by the min/max over groups, and the total
  // weight is bounded by expected deliveries only when nobody died mid-run
  // (alive = 1, stillborn) — exercised here.
  const sim::Scenario* preset = sim::find_scenario("fig9");
  ASSERT_NE(preset, nullptr);
  sim::Scenario scenario = *preset;
  scenario.runs = 6;
  scenario.alive_sweep = {1.0};

  const SweepResult sweep = run_sweep(scenario, {.jobs = 2});
  const ScenarioPoint& point = sweep.points.front();
  ASSERT_FALSE(point.latency_sketch.empty());
  EXPECT_EQ(point.latency_sketch.min(), 0.0);  // the publisher's delivery
  double last_round_max = 0.0;
  for (const ScenarioGroupStats& group : point.groups) {
    last_round_max = std::max(last_round_max, group.last_delivery_round.max());
  }
  EXPECT_LE(point.latency_sketch.max(), last_round_max);
  EXPECT_LE(point.latency_sketch.count(), point.expected_deliveries);
  // Integer round latencies: far fewer distinct values than capacity, so
  // the production sketch must still be exact.
  EXPECT_FALSE(point.latency_sketch.compacted());
}

TEST(LatencySlo, DynamicMessageClassTotalsAreConsistent) {
  const sim::Scenario* preset = sim::find_scenario("zipf-storm");
  ASSERT_NE(preset, nullptr);
  sim::Scenario scenario = *preset;
  scenario.runs = 3;
  scenario.alive_sweep = {1.0};

  const SweepResult sweep = run_sweep(scenario, {.jobs = 1});
  const ScenarioPoint& point = sweep.points.front();
  // The timeline's send rows sum to the run's event messages; SUMS of
  // independently-Welforded means are only ulp-close.
  EXPECT_DOUBLE_EQ(point.msg_event_sends.mean() + point.msg_inter_sends.mean(),
                   point.total_messages.mean());
  // Every sketched latency is one first-time delivery and every delivery
  // — including the publisher's own synchronous one, which flows through
  // the same deliver() path — is traced as kDeliver, so the totals match.
  const double traced_deliveries =
      point.msg_delivers.mean() *
      static_cast<double>(point.msg_delivers.count());
  EXPECT_NEAR(static_cast<double>(point.latency_sketch.count()),
              traced_deliveries, 1e-6 * traced_deliveries);
}

}  // namespace
}  // namespace dam::exp

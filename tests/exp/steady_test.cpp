// Sustained-service lane contract, sweep-level: the steady presets — the
// protocol itself plus both head-to-head baseline engines replaying the
// SAME multi-publisher stream — produce BIT-identical aggregates for every
// --jobs and --threads value, and the seen-column GC's bookkeeping bound is
// visible (and its correctness guard silent) over long horizons. Mirrors
// threads_test.cpp for the steady lanes; the comparison helper is the same.
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
  EXPECT_EQ(a.peak_queue_bytes, b.peak_queue_bytes);
  EXPECT_EQ(a.peak_bookkeeping_bytes, b.peak_bookkeeping_bytes);
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
    EXPECT_EQ(pa.control_messages.mean(), pb.control_messages.mean());
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

/// The preset shrunk for the suite: shorter horizon, two alive points,
/// two runs — still multi-publisher (8 streams), still bursty, still
/// GC-enabled, so every steady code path is exercised.
sim::Scenario small_steady(const char* name) {
  const sim::Scenario* preset = sim::find_scenario(name);
  EXPECT_NE(preset, nullptr) << name;
  sim::Scenario scenario = *preset;
  scenario.workload.arrival.horizon = 96;
  scenario.runs = 2;
  scenario.alive_sweep = {0.85, 1.0};
  return scenario;
}

/// One steady lane pinned across jobs {2,4,8} and threads {2,4,8}
/// against the jobs=1/threads=1 reference — the determinism contract the
/// cross-engine head-to-head comparisons rest on.
void expect_lane_pinned(sim::Scenario scenario) {
  scenario.threads = 1;
  const SweepResult reference = run_sweep(scenario, {.jobs = 1});
  EXPECT_GT(reference.points.front().publications.count(), 0u);
  EXPECT_GT(reference.points.back().event_reliability.mean(), 0.0);
  for (const unsigned jobs : {2u, 4u, 8u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    expect_identical(reference, run_sweep(scenario, {.jobs = jobs}));
  }
  for (const unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    scenario.threads = threads;
    const SweepResult sharded = run_sweep(scenario, {.jobs = 1});
    EXPECT_EQ(sharded.threads, threads);
    expect_identical(reference, sharded);
  }
}

TEST(Steady, ProtocolLaneIsBitIdenticalForAnyJobsAndThreads) {
  expect_lane_pinned(small_steady("steady-state"));
}

TEST(Steady, ChurnLaneIsBitIdenticalForAnyJobsAndThreads) {
  expect_lane_pinned(small_steady("steady-churn"));
}

TEST(Steady, TreeBaselineIsBitIdenticalForAnyJobsAndThreads) {
  expect_lane_pinned(small_steady("steady-tree"));
}

TEST(Steady, GossipBaselineIsBitIdenticalForAnyJobsAndThreads) {
  expect_lane_pinned(small_steady("steady-gossip"));
}

TEST(Steady, BaselinesReplayTheIdenticalStream) {
  // The head-to-head contract: all three engines see the same publication
  // schedule — same count, same rounds — because they share base_seed and
  // the (base_seed, stream, index) draws. Publications are the stream's
  // observable; if these diverge the comparison tables are meaningless.
  const SweepResult protocol = run_sweep(small_steady("steady-state"), {});
  const SweepResult tree = run_sweep(small_steady("steady-tree"), {});
  const SweepResult gossip = run_sweep(small_steady("steady-gossip"), {});
  ASSERT_EQ(protocol.points.size(), tree.points.size());
  ASSERT_EQ(protocol.points.size(), gossip.points.size());
  for (std::size_t pt = 0; pt < protocol.points.size(); ++pt) {
    SCOPED_TRACE(pt);
    EXPECT_EQ(protocol.points[pt].publications.mean(),
              tree.points[pt].publications.mean());
    EXPECT_EQ(protocol.points[pt].publications.mean(),
              gossip.points[pt].publications.mean());
  }
}

TEST(Steady, GcBoundsBookkeepingOverLongHorizons) {
  // The sustained-service measurand: over a horizon much longer than the
  // GC window, the retained seen-column footprint diverges — GC-off keeps
  // one column per publication of the whole history while GC-on stays
  // within the window.
  sim::Scenario scenario = *sim::find_scenario("steady-state");
  scenario.workload.arrival.horizon = 1024;
  scenario.runs = 1;
  scenario.alive_sweep = {1.0};

  scenario.workload.engine.gc_horizon = 0;
  const SweepResult off = run_sweep(scenario, {});
  scenario.workload.engine.gc_horizon = 64;
  const SweepResult on = run_sweep(scenario, {});

  EXPECT_GT(off.peak_bookkeeping_bytes, 2 * on.peak_bookkeeping_bytes)
      << "GC-off " << off.peak_bookkeeping_bytes << " bytes vs GC-on "
      << on.peak_bookkeeping_bytes;
  // And GC must be reliability-neutral: outcomes are harvested at each
  // publication's deadline in both modes, before retirement can bite.
  EXPECT_EQ(off.points[0].event_reliability.mean(),
            on.points[0].event_reliability.mean());
  EXPECT_EQ(off.points[0].publications.mean(),
            on.points[0].publications.mean());
}

}  // namespace
}  // namespace dam::exp

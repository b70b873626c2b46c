// The flight recorder rides the bit-identity contract: the merged
// per-point timeline (per-round counter rows, window gauges, per-window
// latency sketches) and the sweep-level peak_bookkeeping_bytes are bitwise
// identical for every --jobs value (cross-run fan-out) and every --threads
// value (intra-run sharding), on BOTH engines. Mirrors latency_slo_test.cpp
// / threads_test.cpp for the latency aggregates. The timeline is also the
// one store of run counters, so every view of them must agree with it in
// every lane.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "baselines/steady.hpp"
#include "core/frozen_sim.hpp"
#include "exp/grid.hpp"
#include "exp/runner.hpp"
#include "sim/scenario.hpp"
#include "sim/trace.hpp"
#include "util/timeline.hpp"
#include "workload/driver.hpp"

namespace dam::exp {
namespace {

/// Bitwise equality of every flight-recorder output of two sweeps.
void expect_timeline_identical(const SweepResult& a, const SweepResult& b) {
  EXPECT_EQ(a.peak_bookkeeping_bytes, b.peak_bookkeeping_bytes);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t pt = 0; pt < a.points.size(); ++pt) {
    SCOPED_TRACE(pt);
    const ScenarioPoint& pa = a.points[pt];
    const ScenarioPoint& pb = b.points[pt];
    const util::Timeline& ta = pa.timeline;
    const util::Timeline& tb = pb.timeline;
    EXPECT_EQ(ta.window_rounds(), tb.window_rounds());
    ASSERT_EQ(ta.rounds().size(), tb.rounds().size());
    for (std::size_t r = 0; r < ta.rounds().size(); ++r) {
      SCOPED_TRACE(r);
      const util::Timeline::Counters& ra = ta.rounds()[r];
      const util::Timeline::Counters& rb = tb.rounds()[r];
      EXPECT_EQ(ra.deliveries, rb.deliveries);
      EXPECT_EQ(ra.publishes, rb.publishes);
      EXPECT_EQ(ra.event_sends, rb.event_sends);
      EXPECT_EQ(ra.inter_sends, rb.inter_sends);
      EXPECT_EQ(ra.control_sends, rb.control_sends);
      EXPECT_EQ(ra.joins, rb.joins);
      EXPECT_EQ(ra.leaves, rb.leaves);
      EXPECT_EQ(ra.crashes, rb.crashes);
      EXPECT_EQ(ra.recovers, rb.recovers);
    }
    ASSERT_EQ(ta.windows().size(), tb.windows().size());
    for (std::size_t w = 0; w < ta.windows().size(); ++w) {
      SCOPED_TRACE(w);
      const util::Timeline::Window& wa = ta.windows()[w];
      const util::Timeline::Window& wb = tb.windows()[w];
      EXPECT_EQ(wa.queue_peak_bytes, wb.queue_peak_bytes);
      EXPECT_EQ(wa.seen_bytes, wb.seen_bytes);
      EXPECT_EQ(wa.delivered_bytes, wb.delivered_bytes);
      EXPECT_EQ(wa.request_bytes, wb.request_bytes);
      // Bitwise sketch equality — centroid list, not just quantiles.
      EXPECT_TRUE(wa.latency.centroids() == wb.latency.centroids());
      EXPECT_EQ(wa.latency.count(), wb.latency.count());
    }
  }
}

TEST(TimelineIdentity, FrozenSweepBitIdenticalAcrossJobs) {
  const sim::Scenario* preset = sim::find_scenario("fig9");
  ASSERT_NE(preset, nullptr);
  sim::Scenario scenario = *preset;
  scenario.runs = 8;
  scenario.alive_sweep = {0.5, 1.0};

  const SweepResult reference = run_sweep(scenario, {.jobs = 1});
  ASSERT_FALSE(reference.points.back().timeline.empty());
  EXPECT_GT(reference.points.back().timeline.totals().deliveries, 0u);
  // The frozen lane's only bookkeeping is the delivered bitmap; it still
  // must register as a non-zero peak.
  EXPECT_GT(reference.peak_bookkeeping_bytes, 0u);
  for (const unsigned jobs : {2u, 4u, 8u}) {
    SCOPED_TRACE(jobs);
    expect_timeline_identical(reference, run_sweep(scenario, {.jobs = jobs}));
  }
}

TEST(TimelineIdentity, DynamicSweepBitIdenticalAcrossJobs) {
  const sim::Scenario* preset = sim::find_scenario("zipf-storm");
  ASSERT_NE(preset, nullptr);
  sim::Scenario scenario = *preset;
  scenario.runs = 4;
  scenario.alive_sweep = {0.85, 1.0};

  const SweepResult reference = run_sweep(scenario, {.jobs = 1});
  ASSERT_FALSE(reference.points.front().timeline.empty());
  EXPECT_GT(reference.peak_bookkeeping_bytes, 0u);
  // The per-round rows flow through the aggregate.
  const util::Timeline& timeline = reference.points.front().timeline;
  EXPECT_FALSE(
      timeline.per_round(&util::Timeline::Counters::deliveries).empty());
  EXPECT_FALSE(
      timeline.per_round(&util::Timeline::Counters::control_sends).empty());
  for (const unsigned jobs : {2u, 4u, 8u}) {
    SCOPED_TRACE(jobs);
    expect_timeline_identical(reference, run_sweep(scenario, {.jobs = jobs}));
  }
}

TEST(TimelineIdentity, FrozenSweepBitIdenticalAcrossThreads) {
  const sim::Scenario* preset = sim::find_scenario("giant-flat");
  ASSERT_NE(preset, nullptr);
  sim::Scenario scenario = *preset;
  scenario.group_sizes = {6000};  // still multi-chunk (kRowChunk = 4096)
  scenario.runs = 3;
  scenario.alive_sweep = {0.85, 1.0};

  scenario.threads = 1;
  const SweepResult reference = run_sweep(scenario, {.jobs = 1});
  ASSERT_FALSE(reference.points.back().timeline.empty());
  for (const unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    scenario.threads = threads;
    expect_timeline_identical(reference, run_sweep(scenario, {.jobs = 1}));
  }
}

TEST(TimelineIdentity, DynamicSweepBitIdenticalAcrossThreads) {
  const sim::Scenario* preset = sim::find_scenario("zipf-storm");
  ASSERT_NE(preset, nullptr);
  sim::Scenario scenario = *preset;
  scenario.runs = 4;
  scenario.alive_sweep = {0.85, 1.0};

  scenario.threads = 1;
  const SweepResult reference = run_sweep(scenario, {.jobs = 1});
  ASSERT_FALSE(reference.points.front().timeline.empty());
  for (const unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    scenario.threads = threads;
    expect_timeline_identical(reference, run_sweep(scenario, {.jobs = 1}));
  }
}

/// Σ of one counter over the windows of `timeline`.
std::uint64_t window_sum(const util::Timeline& timeline,
                         std::uint64_t util::Timeline::Counters::*counter) {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < timeline.windows().size(); ++w) {
    total += timeline.window_counters(w).*counter;
  }
  return total;
}

/// Σ of one counter's per-round series (the report's *_per_round arrays).
std::uint64_t series_sum(const util::Timeline& timeline,
                         std::uint64_t util::Timeline::Counters::*counter) {
  const std::vector<std::uint64_t> series = timeline.per_round(counter);
  return std::accumulate(series.begin(), series.end(), std::uint64_t{0});
}

std::uint64_t sketch_weight(const util::Timeline& timeline) {
  std::uint64_t total = 0;
  for (const util::Timeline::Window& window : timeline.windows()) {
    total += window.latency.count();
  }
  return total;
}

/// The preset at its last alive fraction with `runs` runs, its population
/// capped at 20,000 (the registry smoke's cap).
sim::Scenario smoke(const char* name, int runs) {
  const sim::Scenario* preset = sim::find_scenario(name);
  EXPECT_NE(preset, nullptr) << name;
  sim::Scenario scenario = *preset;
  scenario.alive_sweep = {scenario.alive_sweep.back()};
  scenario.runs = runs;
  std::size_t population = 0;
  for (const std::size_t size : scenario.group_sizes) population += size;
  if (population > 20000) {
    apply_grid_point(scenario,
                     {{"scale", 20000.0 / static_cast<double>(population)}});
  }
  return scenario;
}

using Counters = util::Timeline::Counters;

/// Identities every run of every lane keeps: the per-round series and the
/// windows are two bucketings of the same rows, and every windowed
/// delivery carries exactly one latency sample.
void expect_bucketings_agree(const util::Timeline& timeline) {
  EXPECT_EQ(series_sum(timeline, &Counters::deliveries),
            window_sum(timeline, &Counters::deliveries));
  EXPECT_EQ(series_sum(timeline, &Counters::control_sends),
            window_sum(timeline, &Counters::control_sends));
  EXPECT_EQ(window_sum(timeline, &Counters::deliveries),
            sketch_weight(timeline));
}

/// One stream-lane run: its message-class totals are its window sums, and
/// `delivers` is interested deliveries plus parasites.
void expect_stream_run_identities(const sim::Scenario& scenario,
                                  const workload::DynamicRunResult& run) {
  ScenarioPoint point = make_point(scenario, scenario.alive_sweep.front());
  accumulate_run(point, run);
  const util::Timeline& timeline = run.timeline;
  const auto as_double = [](std::uint64_t value) {
    return static_cast<double>(value);
  };
  EXPECT_EQ(point.publications.mean(),
            as_double(window_sum(timeline, &Counters::publishes)));
  EXPECT_EQ(point.msg_event_sends.mean(),
            as_double(window_sum(timeline, &Counters::event_sends)));
  EXPECT_EQ(point.msg_inter_sends.mean(),
            as_double(window_sum(timeline, &Counters::inter_sends)));
  EXPECT_EQ(point.msg_control_sends.mean(),
            as_double(window_sum(timeline, &Counters::control_sends)));
  EXPECT_EQ(point.msg_delivers.mean(),
            as_double(window_sum(timeline, &Counters::deliveries) +
                      run.parasite_deliveries));
  EXPECT_EQ(run.publications, window_sum(timeline, &Counters::publishes));
  if (scenario.engine == sim::EngineKind::kBaselineGossip) {
    EXPECT_GT(run.parasite_deliveries, 0u);  // interest-agnostic flooding
  } else {
    EXPECT_EQ(run.parasite_deliveries, 0u);
  }
  expect_bucketings_agree(timeline);
}

TEST(TimelineIdentity, WindowedDeliveriesAgreeWithPerRoundVectors) {
  // The timeline is the one store of run counters; every other view of
  // them (window counters, per-round arrays, message-class totals, the
  // run result's message counts) must agree with it, in every lane.
  for (const char* name :
       {"steady-state", "steady-tree", "steady-gossip", "zipf-storm",
        "churn-subscribe-heavy"}) {
    SCOPED_TRACE(name);
    const sim::Scenario scenario = smoke(name, 2);
    const double alive = scenario.alive_sweep.front();
    const bool dynamic = scenario.engine == sim::EngineKind::kDynamic;
    const topics::TopicDag dag = scenario.build_dag();
    for (int run = 0; run < scenario.runs; ++run) {
      SCOPED_TRACE(run);
      if (!dynamic) {
        expect_stream_run_identities(
            scenario,
            baselines::run_steady_baseline(scenario, dag, alive, run));
        continue;
      }
      // The protocol lane is also counted by an attached recorder, which
      // sees every DamSystem send, publish and delivery independently.
      sim::TraceRecorder recorder(0);
      const workload::DynamicRunResult result =
          workload::run_dynamic_simulation(scenario, dag, alive, run,
                                           &recorder);
      expect_stream_run_identities(scenario, result);
      const Counters totals = result.timeline.totals();
      EXPECT_EQ(recorder.total(sim::TraceKind::kPublish), totals.publishes);
      EXPECT_EQ(recorder.total(sim::TraceKind::kEventSend),
                totals.event_sends);
      EXPECT_EQ(recorder.total(sim::TraceKind::kInterSend),
                totals.inter_sends);
      EXPECT_EQ(recorder.total(sim::TraceKind::kControlSend),
                totals.control_sends);
      EXPECT_EQ(recorder.total(sim::TraceKind::kDeliver),
                totals.deliveries + result.parasite_deliveries);
    }
    const SweepResult sweep = run_sweep(scenario, {.jobs = 2});
    const ScenarioPoint& point = sweep.points.front();
    EXPECT_EQ(point.msg_delivers.count(),
              static_cast<std::size_t>(scenario.runs));
    EXPECT_GT(window_sum(point.timeline, &Counters::deliveries), 0u);
    expect_bucketings_agree(point.timeline);
    // The sweep-level peak is exactly the timeline's own measurand.
    EXPECT_GE(sweep.peak_bookkeeping_bytes,
              point.timeline.peak_bookkeeping_bytes());
  }
}

TEST(TimelineIdentity, FrozenDeliveriesPerRoundFlowThroughAggregate) {
  // The frozen lane notes deliveries and its one publication into the
  // timeline, but has no control plane and reports no message classes:
  // they stay at zero samples and control_per_round stays empty.
  for (const char* name : {"fig9", "churn-light"}) {
    SCOPED_TRACE(name);
    const sim::Scenario scenario = smoke(name, 4);
    const topics::TopicDag dag = scenario.build_dag();
    for (int run = 0; run < scenario.runs; ++run) {
      SCOPED_TRACE(run);
      const core::FrozenRunResult result = core::run_frozen_simulation(
          scenario.config_for(dag, scenario.alive_sweep.front(), run));
      EXPECT_EQ(window_sum(result.timeline, &Counters::deliveries),
                result.latency_sketch.count());
      EXPECT_LE(window_sum(result.timeline, &Counters::publishes), 1u);
      expect_bucketings_agree(result.timeline);
    }
    const SweepResult sweep = run_sweep(scenario, {.jobs = 2});
    const ScenarioPoint& point = sweep.points.front();
    EXPECT_GT(series_sum(point.timeline, &Counters::deliveries), 0u);
    EXPECT_GT(window_sum(point.timeline, &Counters::publishes), 0u);
    expect_bucketings_agree(point.timeline);
    EXPECT_TRUE(point.timeline.per_round(&Counters::control_sends).empty());
    for (const util::Accumulator* classes :
         {&point.publications, &point.msg_event_sends, &point.msg_inter_sends,
          &point.msg_control_sends, &point.msg_delivers}) {
      EXPECT_EQ(classes->count(), 0u);
    }
  }
}

}  // namespace
}  // namespace dam::exp

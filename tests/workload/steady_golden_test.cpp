// Golden regression for the sustained-service lane: one steady cell per
// engine — the protocol (dynamic engine), the Scribe-style per-group tree
// baseline, and the interest-agnostic flat-gossip baseline — pinned
// bit-for-bit at (horizon=96, alive=1.0, run=0). All three replay the SAME
// generated stream (shared base_seed), which the shared publications /
// expected_deliveries values below make concrete.
//
// If a change legitimately alters a steady RNG stream (a new draw, a
// reordered sample), regenerate these numbers TOGETHER with a changelog
// note — the cross-engine head-to-head tables rest on them.
#include <gtest/gtest.h>

#include <cstdint>

#include "baselines/steady.hpp"
#include "sim/scenario.hpp"
#include "util/timeline.hpp"
#include "workload/driver.hpp"

namespace dam::workload {
namespace {

/// Event messages (intra- plus intergroup) a run sent, off its timeline.
std::uint64_t event_messages(const DynamicRunResult& r) {
  const util::Timeline::Counters totals = r.timeline.totals();
  return totals.event_sends + totals.inter_sends;
}

/// One accounting path: the per-group counters, the timeline rows, the
/// latency sketch and the publication count all come from the engine's
/// sim::Metrics, so they agree exactly on every engine.
void expect_accounting_identity(const DynamicRunResult& r) {
  std::uint64_t event_sends = 0;
  std::uint64_t control_sends = 0;
  for (const DynamicGroupResult& group : r.groups) {
    event_sends += group.intra_sent + group.inter_sent;
    control_sends += group.control_sent;
  }
  const util::Timeline::Counters totals = r.timeline.totals();
  EXPECT_EQ(event_sends, totals.event_sends + totals.inter_sends);
  EXPECT_EQ(control_sends, totals.control_sends);
  EXPECT_EQ(r.latency_sketch.count(), totals.deliveries);
  EXPECT_EQ(r.publications, totals.publishes);
}

sim::Scenario cell(const char* name) {
  const sim::Scenario* preset = sim::find_scenario(name);
  EXPECT_NE(preset, nullptr) << name;
  sim::Scenario scenario = *preset;
  scenario.workload.arrival.horizon = 96;
  return scenario;
}

TEST(SteadyGolden, ProtocolCell) {
  const sim::Scenario scenario = cell("steady-state");
  const topics::TopicDag dag = scenario.build_dag();
  const DynamicRunResult r = run_dynamic_simulation(scenario, dag, 1.0, 0);
  EXPECT_EQ(event_messages(r), 234587u);
  EXPECT_EQ(r.timeline.totals().control_sends, 132085u);
  EXPECT_EQ(r.publications, 47u);
  EXPECT_DOUBLE_EQ(r.event_reliability, 0.99686862878352234);
  EXPECT_DOUBLE_EQ(r.mean_latency, 3.42421684952589);
  EXPECT_DOUBLE_EQ(r.max_latency, 9.0);
  EXPECT_EQ(r.rounds, 119u);
  EXPECT_EQ(r.expected_deliveries, 20270u);
  EXPECT_EQ(r.timeline.totals().event_sends, 234374u);
  EXPECT_EQ(r.timeline.totals().inter_sends, 213u);
  EXPECT_EQ(r.timeline.totals().deliveries + r.parasite_deliveries, 20143u);
  ASSERT_EQ(r.groups.size(), 3u);
  EXPECT_EQ(r.groups[0].intra_sent, 3514u);
  EXPECT_EQ(r.groups[0].inter_received, 124u);
  EXPECT_DOUBLE_EQ(r.groups[0].delivery_ratio, 0.93617021276595747);
  EXPECT_EQ(r.groups[0].ratio_samples, 47u);
  EXPECT_EQ(r.groups[1].intra_sent, 27880u);
  EXPECT_EQ(r.groups[1].inter_sent, 124u);
  EXPECT_DOUBLE_EQ(r.groups[1].delivery_ratio, 0.99571428571428566);
  EXPECT_EQ(r.groups[1].ratio_samples, 28u);
  EXPECT_EQ(r.groups[2].intra_sent, 202980u);
  EXPECT_EQ(r.groups[2].control_sent, 118999u);
  EXPECT_EQ(r.groups[2].duplicate_deliveries, 155518u);
  EXPECT_DOUBLE_EQ(r.groups[2].delivery_ratio, 0.995);
  EXPECT_EQ(r.groups[2].ratio_samples, 17u);
  EXPECT_GT(r.table_bytes, 0u);
  EXPECT_GT(r.queue_bytes, 0u);
  EXPECT_EQ(r.timeline.peak_bookkeeping_bytes(), 6048u);
  expect_accounting_identity(r);
}

TEST(SteadyGolden, TreeBaselineCell) {
  // Single-path routing under the default lossy channels: every lost hop
  // severs a whole subtree, and losses compound per tree level — the
  // fragility the reliability number documents.
  const sim::Scenario scenario = cell("steady-tree");
  const topics::TopicDag dag = scenario.build_dag();
  const DynamicRunResult r =
      baselines::run_steady_baseline(scenario, dag, 1.0, 0);
  EXPECT_EQ(event_messages(r), 9430u);
  EXPECT_EQ(r.timeline.totals().control_sends, 33210u);
  EXPECT_EQ(r.publications, 47u);
  EXPECT_DOUBLE_EQ(r.event_reliability, 0.56751529091954622);
  EXPECT_DOUBLE_EQ(r.mean_latency, 5.3168329177057361);
  EXPECT_DOUBLE_EQ(r.max_latency, 7.0);
  EXPECT_EQ(r.rounds, 119u);
  // Same stream as the protocol cell: publications and the reliability
  // denominator agree exactly.
  EXPECT_EQ(r.expected_deliveries, 20270u);
  EXPECT_EQ(r.timeline.totals().event_sends, 9405u);
  EXPECT_EQ(r.timeline.totals().inter_sends, 25u);
  EXPECT_EQ(r.timeline.totals().control_sends, 33210u);
  EXPECT_EQ(r.timeline.totals().deliveries + r.parasite_deliveries, 8020u);
  ASSERT_EQ(r.groups.size(), 3u);
  EXPECT_EQ(r.groups[0].intra_sent, 276u);
  EXPECT_DOUBLE_EQ(r.groups[0].delivery_ratio, 0.52127659574468088);
  EXPECT_EQ(r.groups[1].intra_sent, 1189u);
  EXPECT_EQ(r.groups[1].inter_sent, 14u);
  EXPECT_DOUBLE_EQ(r.groups[1].delivery_ratio, 0.36607142857142855);
  EXPECT_EQ(r.groups[2].intra_sent, 7940u);
  EXPECT_EQ(r.groups[2].control_sent, 29970u);
  EXPECT_DOUBLE_EQ(r.groups[2].delivery_ratio, 0.39705882352941174);
  EXPECT_EQ(r.table_bytes, 0u);
  EXPECT_EQ(r.queue_bytes, 26244u);
  // The rivals' delivered sets are bit sets, gauged as the protocol gauges
  // its seen columns (words × 8 B); the stream is shared, so both rivals
  // hold the same live sets at the peak.
  EXPECT_EQ(r.timeline.peak_bookkeeping_bytes(), 4752u);
  expect_accounting_identity(r);
}

TEST(SteadyGolden, GossipBaselineCell) {
  // Interest-agnostic flooding: perfect reliability on the interested set
  // but ~3x the protocol's event traffic and parasite deliveries in every
  // non-root group (all_alive_delivered=false below T0).
  const sim::Scenario scenario = cell("steady-gossip");
  const topics::TopicDag dag = scenario.build_dag();
  const DynamicRunResult r =
      baselines::run_steady_baseline(scenario, dag, 1.0, 0);
  EXPECT_EQ(event_messages(r), 678197u);
  EXPECT_EQ(r.timeline.totals().control_sends, 33300u);
  EXPECT_EQ(r.publications, 47u);
  EXPECT_DOUBLE_EQ(r.event_reliability, 1.0);
  EXPECT_DOUBLE_EQ(r.mean_latency, 2.1707449432659103);
  EXPECT_DOUBLE_EQ(r.max_latency, 4.0);
  EXPECT_EQ(r.rounds, 119u);
  EXPECT_EQ(r.expected_deliveries, 20270u);
  EXPECT_EQ(r.timeline.totals().event_sends, 678197u);
  EXPECT_EQ(r.timeline.totals().inter_sends, 0u);
  EXPECT_EQ(r.timeline.totals().deliveries + r.parasite_deliveries, 52169u);
  ASSERT_EQ(r.groups.size(), 3u);
  EXPECT_EQ(r.groups[0].intra_sent, 6110u);
  EXPECT_EQ(r.groups[0].duplicate_deliveries, 4777u);
  EXPECT_DOUBLE_EQ(r.groups[0].delivery_ratio, 1.0);
  EXPECT_TRUE(r.groups[0].all_alive_delivered);  // root: ancestor of all
  EXPECT_EQ(r.groups[1].intra_sent, 61100u);
  EXPECT_FALSE(r.groups[1].all_alive_delivered);  // parasite deliveries
  EXPECT_EQ(r.groups[2].intra_sent, 610987u);
  EXPECT_EQ(r.groups[2].duplicate_deliveries, 472686u);
  EXPECT_FALSE(r.groups[2].all_alive_delivered);
  EXPECT_EQ(r.queue_bytes, 2435004u);
  EXPECT_EQ(r.timeline.peak_bookkeeping_bytes(), 4752u);
  expect_accounting_identity(r);
}

}  // namespace
}  // namespace dam::workload

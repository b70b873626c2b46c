// Golden regression: dynamic-lane runs must stay BIT-IDENTICAL for fixed
// (scenario, alive, run) cells across all three dynamic presets plus a
// cold-start bootstrap cell and a recovery-ablation cell — every counter
// and every accumulated double is pinned exactly. The numbers were
// captured from the engine's one stream (chunked spawn-batch fill).
//
// If a change legitimately alters the dynamic RNG stream (a new draw, a
// reordered sample), these numbers must be regenerated TOGETHER with a
// changelog note — the lab's cross-PR comparability of dynamic sweeps
// rests on them.
#include <gtest/gtest.h>

#include <cstdint>

#include "sim/scenario.hpp"
#include "workload/driver.hpp"

namespace dam::workload {
namespace {

/// Event messages (intra- plus intergroup) a run sent, off its timeline.
std::uint64_t event_messages(const DynamicRunResult& r) {
  const util::Timeline::Counters totals = r.timeline.totals();
  return totals.event_sends + totals.inter_sends;
}

const sim::Scenario& preset(const char* name) {
  const sim::Scenario* scenario = sim::find_scenario(name);
  EXPECT_NE(scenario, nullptr) << name;
  return *scenario;
}

TEST(DynamicGolden, ZipfStormAllAliveRunZero) {
  const sim::Scenario& scenario = preset("zipf-storm");
  const topics::TopicDag dag = scenario.build_dag();
  const DynamicRunResult r = run_dynamic_simulation(scenario, dag, 1.0, 0);
  EXPECT_EQ(event_messages(r), 96777u);
  EXPECT_EQ(r.timeline.totals().control_sends, 58827u);
  EXPECT_EQ(r.publications, 20u);
  EXPECT_DOUBLE_EQ(r.event_reliability, 0.9940294840294841);
  EXPECT_DOUBLE_EQ(r.mean_latency, 3.4281422734919489);
  EXPECT_DOUBLE_EQ(r.max_latency, 9.0);
  EXPECT_EQ(r.rounds, 53u);
  ASSERT_EQ(r.groups.size(), 3u);
  EXPECT_EQ(r.groups[0].intra_sent, 1587u);
  EXPECT_EQ(r.groups[0].inter_received, 57u);
  EXPECT_EQ(r.groups[0].control_sent, 529u);
  EXPECT_EQ(r.groups[0].duplicate_deliveries, 1186u);
  EXPECT_DOUBLE_EQ(r.groups[0].delivery_ratio, 1.0);
  EXPECT_EQ(r.groups[1].intra_sent, 11880u);
  EXPECT_EQ(r.groups[1].inter_sent, 57u);
  EXPECT_DOUBLE_EQ(r.groups[1].delivery_ratio, 0.9900000000000001);
  EXPECT_EQ(r.groups[2].intra_sent, 83208u);
  EXPECT_EQ(r.groups[2].control_sent, 52999u);
  EXPECT_EQ(r.groups[2].duplicate_deliveries, 63816u);
  EXPECT_DOUBLE_EQ(r.groups[2].delivery_ratio, 0.99057142857142844);
  EXPECT_EQ(r.groups[2].ratio_samples, 7u);
  // The arena path reports its footprint.
  EXPECT_GT(r.table_bytes, 0u);
  // Likewise the slab transport reports its in-flight high-water mark, and
  // it stays far below what the per-message queue would have held (one
  // ~200-byte Message per queued copy).
  EXPECT_GT(r.queue_bytes, 0u);
  EXPECT_LT(r.queue_bytes, 1u << 20);
}

TEST(DynamicGolden, ZipfStormStillbornRunTwo) {
  const sim::Scenario& scenario = preset("zipf-storm");
  const topics::TopicDag dag = scenario.build_dag();
  const DynamicRunResult r = run_dynamic_simulation(scenario, dag, 0.7, 2);
  EXPECT_EQ(event_messages(r), 30486u);
  EXPECT_EQ(r.timeline.totals().control_sends, 41447u);
  EXPECT_EQ(r.publications, 26u);
  EXPECT_DOUBLE_EQ(r.event_reliability, 0.99540392640069575);
  EXPECT_DOUBLE_EQ(r.mean_latency, 3.6531683539557553);
  ASSERT_EQ(r.groups.size(), 3u);
  EXPECT_EQ(r.groups[0].alive, 7u);
  EXPECT_EQ(r.groups[1].alive, 69u);
  EXPECT_EQ(r.groups[2].alive, 706u);
  EXPECT_DOUBLE_EQ(r.groups[0].delivery_ratio, 1.0);
  EXPECT_DOUBLE_EQ(r.groups[1].delivery_ratio, 0.97584541062801933);
  EXPECT_DOUBLE_EQ(r.groups[2].delivery_ratio, 0.98253068932955623);
}

TEST(DynamicGolden, FlashcrowdRunOne) {
  const sim::Scenario& scenario = preset("flashcrowd");
  const topics::TopicDag dag = scenario.build_dag();
  const DynamicRunResult r = run_dynamic_simulation(scenario, dag, 1.0, 1);
  EXPECT_EQ(event_messages(r), 604897u);
  EXPECT_EQ(r.timeline.totals().control_sends, 52167u);
  EXPECT_EQ(r.publications, 47u);
  EXPECT_DOUBLE_EQ(r.event_reliability, 0.98211615871190361);
  EXPECT_DOUBLE_EQ(r.mean_latency, 3.5444502995881884);
  EXPECT_DOUBLE_EQ(r.max_latency, 10.0);
  ASSERT_EQ(r.groups.size(), 3u);
  EXPECT_EQ(r.groups[2].intra_sent, 557412u);
  EXPECT_EQ(r.groups[2].duplicate_deliveries, 427193u);
  EXPECT_DOUBLE_EQ(r.groups[2].delivery_ratio, 0.98831914893617023);
}

TEST(DynamicGolden, ChurnSubscribeHeavyRunZero) {
  // Joins, leaves and crash/recover: the churn traces exercise both the
  // mid-run spawn() path and the rows of batch-spawned nodes under churn.
  const sim::Scenario& scenario = preset("churn-subscribe-heavy");
  const topics::TopicDag dag = scenario.build_dag();
  const DynamicRunResult r = run_dynamic_simulation(scenario, dag, 1.0, 0);
  EXPECT_EQ(event_messages(r), 18499u);
  EXPECT_EQ(r.timeline.totals().control_sends, 14448u);
  EXPECT_EQ(r.publications, 10u);
  EXPECT_DOUBLE_EQ(r.event_reliability, 0.94925592750349352);
  EXPECT_DOUBLE_EQ(r.mean_latency, 3.7440543601359004);
  EXPECT_DOUBLE_EQ(r.max_latency, 13.0);
  ASSERT_EQ(r.groups.size(), 3u);
  EXPECT_EQ(r.groups[0].size, 42u);
  EXPECT_EQ(r.groups[0].alive, 38u);
  EXPECT_EQ(r.groups[1].size, 72u);
  EXPECT_EQ(r.groups[2].size, 226u);
  EXPECT_EQ(r.groups[2].alive, 193u);
  EXPECT_DOUBLE_EQ(r.groups[0].delivery_ratio, 0.74473684210526314);
  EXPECT_DOUBLE_EQ(r.groups[2].delivery_ratio, 0.8998272884283246);
}

TEST(DynamicGolden, SteadyChurnRunZero) {
  // Mid-run joins into a 1,000-member group: those joiners draw their
  // contacts through Rng::sample's large-pool path, and every member
  // pulls the grown group size instead of having it pushed. The numbers
  // were captured before either change, so they pin both as
  // bit-identical.
  sim::Scenario scenario = preset("steady-churn");
  scenario.workload.arrival.horizon = 96;
  const topics::TopicDag dag = scenario.build_dag();
  const DynamicRunResult r = run_dynamic_simulation(scenario, dag, 1.0, 0);
  EXPECT_EQ(event_messages(r), 348443u);
  EXPECT_EQ(r.timeline.totals().control_sends, 128542u);
  EXPECT_EQ(r.publications, 51u);
  EXPECT_DOUBLE_EQ(r.event_reliability, 0.98575385716884178);
  EXPECT_DOUBLE_EQ(r.mean_latency, 3.5245459090151643);
  EXPECT_DOUBLE_EQ(r.max_latency, 10.0);
  EXPECT_EQ(r.rounds, 119u);
  EXPECT_EQ(r.expected_deliveries, 30145u);
  EXPECT_EQ(r.timeline.totals().deliveries + r.parasite_deliveries, 30005u);
  ASSERT_EQ(r.groups.size(), 3u);
  EXPECT_EQ(r.groups[0].size, 20u);
  EXPECT_EQ(r.groups[0].alive, 20u);
  EXPECT_EQ(r.groups[0].control_sent, 1949u);
  EXPECT_DOUBLE_EQ(r.groups[0].delivery_ratio, 0.82015162340239722);
  EXPECT_EQ(r.groups[1].size, 108u);
  EXPECT_EQ(r.groups[1].alive, 98u);
  EXPECT_EQ(r.groups[1].control_sent, 11498u);
  EXPECT_DOUBLE_EQ(r.groups[1].delivery_ratio, 0.98447641409611419);
  EXPECT_GT(r.groups[2].size, 1000u);  // some joins landed in the big group
  EXPECT_EQ(r.groups[2].size, 1012u);
  EXPECT_EQ(r.groups[2].alive, 960u);
  EXPECT_EQ(r.groups[2].intra_sent, 298380u);
  EXPECT_EQ(r.groups[2].control_sent, 115095u);
  EXPECT_EQ(r.groups[2].duplicate_deliveries, 220037u);
  EXPECT_DOUBLE_EQ(r.groups[2].delivery_ratio, 0.984971432959591);
  EXPECT_EQ(r.groups[2].ratio_samples, 26u);
}

TEST(DynamicGolden, RecoveryAblationCell) {
  // Recovery on: gossip carries history digests and missing events are
  // re-requested — the lane with the heaviest control-field traffic
  // (event_ids in every MEMBERSHIP / EVENT_REQUEST message), i.e. the
  // slab queue's control arenas under real load; pinned bit-for-bit.
  sim::Scenario rec = sim::make_linear_scenario("rec", "rec", {12, 60, 300});
  rec.engine = sim::EngineKind::kDynamic;
  rec.workload.arrival.kind = ArrivalKind::kPoisson;
  rec.workload.arrival.rate = 0.4;
  rec.workload.arrival.horizon = 24;
  rec.workload.engine.recovery_enabled = true;
  rec.workload.engine.recovery_history = 48;
  rec.workload.engine.recovery_digest = 6;
  rec.base_seed = 0x2ECA;
  const topics::TopicDag dag = rec.build_dag();
  const DynamicRunResult r = run_dynamic_simulation(rec, dag, 0.85, 1);
  EXPECT_EQ(event_messages(r), 27409u);
  EXPECT_EQ(r.timeline.totals().control_sends, 16587u);
  EXPECT_EQ(r.publications, 8u);
  EXPECT_DOUBLE_EQ(r.event_reliability, 0.99802839116719244);
  EXPECT_DOUBLE_EQ(r.mean_latency, 3.6516765285996056);
  EXPECT_DOUBLE_EQ(r.max_latency, 38.0);
  EXPECT_EQ(r.rounds, 52u);
  ASSERT_EQ(r.groups.size(), 3u);
  EXPECT_EQ(r.groups[0].size, 12u);
  EXPECT_EQ(r.groups[0].alive, 10u);
  EXPECT_EQ(r.groups[0].intra_sent, 640u);
  EXPECT_EQ(r.groups[0].inter_received, 26u);
  EXPECT_EQ(r.groups[0].control_sent, 520u);
  EXPECT_EQ(r.groups[0].duplicate_deliveries, 378u);
  EXPECT_DOUBLE_EQ(r.groups[0].delivery_ratio, 1.0);
  EXPECT_EQ(r.groups[0].ratio_samples, 8u);
  EXPECT_EQ(r.groups[1].size, 60u);
  EXPECT_EQ(r.groups[1].alive, 50u);
  EXPECT_EQ(r.groups[1].intra_sent, 4009u);
  EXPECT_EQ(r.groups[1].inter_sent, 26u);
  EXPECT_EQ(r.groups[1].inter_received, 33u);
  EXPECT_EQ(r.groups[1].control_sent, 2610u);
  EXPECT_EQ(r.groups[1].duplicate_deliveries, 2538u);
  EXPECT_DOUBLE_EQ(r.groups[1].delivery_ratio, 1.0);
  EXPECT_EQ(r.groups[2].size, 300u);
  EXPECT_EQ(r.groups[2].alive, 257u);
  EXPECT_EQ(r.groups[2].intra_sent, 22701u);
  EXPECT_EQ(r.groups[2].inter_sent, 33u);
  EXPECT_EQ(r.groups[2].control_sent, 13457u);
  EXPECT_EQ(r.groups[2].duplicate_deliveries, 14775u);
  EXPECT_DOUBLE_EQ(r.groups[2].delivery_ratio, 0.9995136186770428);
  EXPECT_EQ(r.timeline.totals().event_sends, 27350u);
  EXPECT_EQ(r.timeline.totals().inter_sends, 59u);
  EXPECT_EQ(r.timeline.totals().control_sends, 16587u);
  EXPECT_EQ(r.timeline.totals().deliveries + r.parasite_deliveries, 2535u);
  EXPECT_EQ(r.timeline.totals().publishes, 8u);
  EXPECT_GT(r.queue_bytes, 0u);
}

TEST(DynamicGolden, ColdStartBootstrapCell) {
  // auto_wire off: super rows are absent from the arena and every node
  // runs FIND_SUPER_CONTACT — the flood order (and so the whole control
  // stream) is pinned too.
  sim::Scenario cold = sim::make_linear_scenario("cold", "cold", {10, 10, 10});
  cold.engine = sim::EngineKind::kDynamic;
  cold.workload.arrival.kind = ArrivalKind::kScheduled;
  cold.workload.arrival.count = 0;
  cold.workload.arrival.horizon = 16;
  cold.workload.engine.auto_wire_super_tables = false;
  cold.workload.engine.warmup_rounds = 0;
  cold.workload.engine.drain_rounds = 0;
  cold.base_seed = 0xC01D;
  const topics::TopicDag dag = cold.build_dag();
  const DynamicRunResult r = run_dynamic_simulation(cold, dag, 1.0, 0);
  EXPECT_EQ(event_messages(r), 0u);
  EXPECT_EQ(r.timeline.totals().control_sends, 2220u);
  EXPECT_DOUBLE_EQ(r.rounds_to_link, 4.0);
  EXPECT_DOUBLE_EQ(r.linked_fraction, 1.0);
  EXPECT_DOUBLE_EQ(r.control_at_link, 1562.0);
}

}  // namespace
}  // namespace dam::workload

// workload::Driver — replays a traffic stream against the dynamic engine.
//
// This is the dynamic-lane counterpart of core/run_frozen_simulation: one
// call executes one full DamSystem run — spawn the scenario's groups, wire
// the failure schedule (stillborn coins from the alive fraction plus the
// workload's crash/leave trace), replay the generated EventStream round by
// round (joins spawn fresh subscribers mid-run, publishes pick an alive
// publisher and inject an event), then drain and collect per-group message
// counters, per-publication reliability, and per-delivery latency.
//
// Determinism: a run is a pure function of (scenario, alive fraction, run
// index). The engine seed and every stream draw derive from
// Scenario::seed_for(alive, run) through workload::stream_rng, so
// exp::run_sweep's bit-identical-for-any---jobs guarantee extends to
// dynamic sweeps unchanged.
//
// Topology: DamSystem runs over a topics::TopicHierarchy (a tree), so only
// tree-shaped scenarios bind — bind_scenario throws on multi-parent DAG
// presets (use the frozen engine for those; the `fanin` grid axis is a
// frozen-lane axis for the same reason).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/scenario.hpp"
#include "sim/trace.hpp"
#include "topics/hierarchy.hpp"
#include "util/quantiles.hpp"
#include "util/timeline.hpp"
#include "workload/traffic.hpp"

namespace dam::workload {

/// The scenario's topology materialized for the dynamic engine: the
/// interned hierarchy plus the TopicId of every scenario topic index.
/// Read-only during runs, so one binding is shared by every worker thread
/// of a sweep.
struct DynamicScenarioBinding {
  topics::TopicHierarchy hierarchy;
  std::vector<topics::TopicId> topic_ids;  ///< scenario index -> TopicId
  std::vector<bool> is_scenario_root;      ///< no parent inside the scenario
};

/// Builds the hierarchy for a tree-shaped scenario. Scenario roots become
/// direct children of the hierarchy root ".". Throws std::invalid_argument
/// when a topic has more than one parent (DAG) or names collide.
[[nodiscard]] DynamicScenarioBinding bind_scenario(
    const sim::Scenario& scenario);

struct DynamicGroupResult {
  std::size_t size = 0;   ///< members at end of run (includes joiners)
  std::size_t alive = 0;  ///< members alive at end of run
  std::uint64_t intra_sent = 0;
  std::uint64_t inter_sent = 0;
  std::uint64_t inter_received = 0;
  std::uint64_t control_sent = 0;
  std::uint64_t duplicate_deliveries = 0;

  /// Mean over this run's publications the group was interested in of
  /// (alive members delivered / alive members); `ratio_samples` counts
  /// those publications (0 when the group saw no relevant traffic).
  double delivery_ratio = 0.0;
  std::size_t ratio_samples = 0;

  /// True iff the group's outcome was correct for EVERY publication: all
  /// alive members delivered when interested, nobody delivered otherwise.
  bool all_alive_delivered = true;
};

struct DynamicRunResult {
  std::vector<DynamicGroupResult> groups;  ///< scenario topic order
  std::size_t rounds = 0;                  ///< warmup + replay + drain
  std::uint64_t total_messages = 0;        ///< event messages sent
  std::uint64_t control_messages = 0;      ///< membership/bootstrap/recovery

  std::size_t publications = 0;   ///< events actually injected
  double event_reliability = 0.0; ///< mean over publications of the fraction
                                  ///< of alive interested processes reached
  double mean_latency = 0.0;      ///< rounds from publish to delivery,
                                  ///< averaged over every first delivery
  double max_latency = 0.0;       ///< slowest first delivery of the run

  /// Per-delivery latency distribution (rounds from publish to first
  /// delivery, every publication pooled) — sim::Metrics' sketch. The
  /// replay loop is serial, so the sketch is bit-identical for every
  /// --threads value.
  util::QuantileSketch latency_sketch;

  /// Deliveries a perfectly reliable run would make: alive interested
  /// members at run end, summed over every publication — denominator of
  /// the reliability-vs-deadline curve. Deliveries to processes that died
  /// before run end are still in the sketch, so curves clamp at 1.
  std::uint64_t expected_deliveries = 0;

  /// First-time deliveries to processes not interested in the event. The
  /// timeline counts interested deliveries only; the two together are
  /// every first-time delivery of the run.
  std::uint64_t parasite_deliveries = 0;

  /// Bootstrap lane, measured iff EngineConfig::auto_wire_super_tables is
  /// false: replay rounds until >= 95% of non-root processes hold a
  /// supertopic table targeting their DIRECT supertopic, the control
  /// traffic spent by then, and the final linked fraction.
  bool measured_link = false;
  double rounds_to_link = 0.0;
  double control_at_link = 0.0;
  double linked_fraction = 0.0;

  double wall_seconds = 0.0;

  /// Wall seconds spent spawning the scenario's groups (arena sampling +
  /// node wiring) — the dynamic lane's analogue of the frozen engine's
  /// table_build_seconds. Included in wall_seconds.
  double table_build_seconds = 0.0;

  /// Contiguous bytes held by the spawn-batch view arenas
  /// (DamSystem::view_arena_bytes) — the dynamic lane's peak_table_bytes.
  /// Per-node copy-on-churn overlays are excluded: they exist only for
  /// nodes that churned.
  std::size_t table_bytes = 0;

  /// High-water in-flight bytes of the transport's slab queue
  /// (DamSystem::peak_queue_bytes): compact per-message records plus
  /// interned event bodies and control-field arenas. Logical bytes, so the
  /// value is bit-identical for every --jobs/--threads value — the big
  /// dissemination wave's memory measurand, gated by bench_dynamic_scale
  /// and tools/bench_diff.
  std::size_t queue_bytes = 0;

  /// Run timeline: per-round delivery / publish / send / churn counters
  /// (the source of the run's message-class totals), rolling latency
  /// sketches, per-window queue high-water, and bookkeeping gauges
  /// (seen/delivered/request-set logical bytes) sampled at window
  /// boundaries. The replay loop is serial and the gauges are read-only
  /// samples, so the timeline is bit-identical for every --jobs/--threads
  /// value.
  util::Timeline timeline;
};

/// Executes one dynamic run: seed and streams derive from
/// scenario.seed_for(alive_fraction, run). `binding` must come from
/// bind_scenario(scenario) and outlive the call. `trace`, when given,
/// records the run's protocol events (damsim --trace). Tracing never
/// perturbs the run — the RNG streams are recorder-independent.
[[nodiscard]] DynamicRunResult run_dynamic_simulation(
    const sim::Scenario& scenario, const DynamicScenarioBinding& binding,
    double alive_fraction, int run, sim::TraceRecorder* trace = nullptr);

}  // namespace dam::workload

// workload::Driver — the one stream replay harness, plus the DamSystem
// engine behind it.
//
// A stream run replays a generated EventStream round by round against one
// engine: DamSystem (run_dynamic_simulation, the dynamic lane) or one of
// the steady rivals in baselines/steady (run_steady_baseline). Every
// decision the engines share lives once, in replay_stream: the topology
// check, the stream and its TrafficShape, the failure schedule (stillborn
// coins from the alive fraction plus the workload's crash/leave trace) and
// its timeline churn notes, the warmup/horizon/drain loop with join
// dispatch and the alive-publisher scan, each publication's deadline
// snapshot and its harvest/retire step under gc_horizon, the flight
// recorder's window cadence, group-outcome grading, and the collection
// into a DynamicRunResult, including the read of the run's counters off
// the engine's sim::Metrics. An engine, behind the StreamEngine interface,
// keeps only what differs: per-message forwarding, its delivered/dedup
// state, gauges and table/queue bytes; it counts every send and delivery
// through its one sim::Metrics, the same calls for every engine. The
// interface is called per round, join or publication, never per message.
//
// Determinism: a run is a pure function of (scenario, alive fraction, run
// index). The engine seed and every stream draw derive from
// Scenario::seed_for(alive, run) through workload::stream_rng, so every
// engine sees the same stream, schedule and publishers, and
// exp::run_sweep's bit-identical-for-any---jobs guarantee extends to
// stream sweeps unchanged.
//
// Topology: scenario topic i is topics::TopicId{i} of Scenario::build_dag(),
// the same TopicDag the frozen engine reads. DamSystem keeps one supertopic
// table per process and the rivals route along one supertopic per group,
// so only tree-shaped scenarios run here — topics::require_tree rejects
// multi-parent DAG presets (use the frozen engine for those; the `fanin`
// grid axis is a frozen-lane axis for the same reason).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "core/system.hpp"
#include "net/message.hpp"
#include "sim/failure.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"
#include "sim/trace.hpp"
#include "topics/dag.hpp"
#include "util/quantiles.hpp"
#include "util/timeline.hpp"
#include "workload/traffic.hpp"

namespace dam::workload {

/// The scenario's topology for code that drives DamSystem itself. Kept
/// only for the frozen benchmark (perfbench/), which spells the topology
/// this way; topic_ids is the identity map. It goes at the next change to
/// the benchmark.
struct DynamicScenarioBinding {
  topics::TopicDag hierarchy;
  std::vector<topics::TopicId> topic_ids;  ///< scenario index -> TopicId
};

/// Builds the scenario's TopicDag and checks that the dynamic engine can
/// run it. Throws std::invalid_argument when a topic has more than one
/// parent, the scenario has no topics, or group_sizes does not cover them.
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
  /// dissemination wave's memory measurand, gated by
  /// tests/workload/dynamic_scale_test.cpp and tools/bench_diff.
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

/// The per-engine half of a stream replay. replay_stream drives it once
/// per round, join or publication. Process ids follow the spawn order: the
/// initial groups block by block, then joiners in stream order, so they
/// line up with the stillborn coins and the churn trace's actors.
class StreamEngine {
 public:
  /// A publication's delivered set: bit p is set once p received it.
  using DeliveredView = core::DamSystem::DeliveredView;

  /// Bookkeeping gauges (logical bytes) and the queue high-water since the
  /// previous sample, read at a flight-recorder window boundary.
  struct WindowSample {
    std::uint64_t seen_bytes = 0;
    std::uint64_t delivered_bytes = 0;
    std::uint64_t request_bytes = 0;
    std::uint64_t queue_peak = 0;
  };

  StreamEngine() = default;
  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;
  virtual ~StreamEngine() = default;

  /// The run's one accounting object: the engine notes every send,
  /// publish, delivery and parasite delivery there; the harness adds the
  /// timeline's churn notes and window samples, reads the run's counters
  /// off it and retires harvested publications' latency records.
  virtual sim::Metrics& metrics() = 0;
  /// Takes the run's failure schedule, once, before the first spawn.
  virtual void set_failures(std::unique_ptr<sim::ChurnFailures> failures) = 0;
  /// Adds `count` processes to `topic`'s group (the initial membership).
  virtual void spawn_group(topics::TopicId topic, std::size_t count) = 0;
  /// Adds one process to `topic`'s group mid-run.
  virtual void join(topics::TopicId topic) = 0;
  /// `topic`'s members in ascending id order; valid until the next spawn.
  [[nodiscard]] virtual const std::vector<topics::ProcessId>& group(
      topics::TopicId topic) const = 0;
  /// `publisher` (alive, a member of `topic`) publishes the next event;
  /// returns its id, the key of its Metrics latency record.
  virtual net::EventId publish(topics::ProcessId publisher,
                               topics::TopicId topic) = 0;
  /// Runs one synchronous round.
  virtual void run_round() = 0;
  /// Valid until the next run_round, join, publish or retire call.
  [[nodiscard]] virtual DeliveredView delivered(net::EventId event) const = 0;
  /// Sustained-service GC: the publication's outcome is harvested; drop
  /// its delivered set.
  virtual void retire(net::EventId event) = 0;
  virtual WindowSample sample_window() = 0;
  /// Fills what only the engine knows: per-group duplicate counters,
  /// table/queue bytes and the bootstrap-link measurement. `result.groups`
  /// is already sized.
  virtual void collect(DynamicRunResult& result) const = 0;
};

/// Builds the run's engine from its seed (the kSystem stream cell).
using EngineFactory =
    std::function<std::unique_ptr<StreamEngine>(std::uint64_t engine_seed)>;

/// Replays scenario's stream for cell (alive_fraction, run) against the
/// engine `make_engine` builds. `dag` must come from scenario.build_dag().
/// Throws std::invalid_argument, prefixed with `caller`, on a topology
/// bind_scenario would reject.
[[nodiscard]] DynamicRunResult replay_stream(const sim::Scenario& scenario,
                                             const topics::TopicDag& dag,
                                             double alive_fraction, int run,
                                             std::string_view caller,
                                             const EngineFactory& make_engine);

/// Executes one dynamic run: seed and streams derive from
/// scenario.seed_for(alive_fraction, run). `dag` must come from
/// scenario.build_dag(); it is shared read-only, so one DAG serves every
/// worker thread of a sweep. Throws std::invalid_argument on a topology
/// bind_scenario would reject. `trace`, when given,
/// records the run's protocol events (damlab --trace). Tracing never
/// perturbs the run — the RNG streams are recorder-independent.
[[nodiscard]] DynamicRunResult run_dynamic_simulation(
    const sim::Scenario& scenario, const topics::TopicDag& dag,
    double alive_fraction, int run, sim::TraceRecorder* trace = nullptr);

}  // namespace dam::workload

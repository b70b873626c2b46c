// Scenario layer — declarative workload descriptions for the frozen-table
// engine, plus a registry of named presets.
//
// A Scenario captures everything one experiment needs: topology shape
// (arbitrary topic DAG; a linear hierarchy is a path), group sizes,
// per-topic TopicParams, failure regime (including churn schedules), the
// publish pattern, and the sweep of alive fractions with the run count per
// point. New workloads are configs, not new binaries: benches
// (bench/bench_common.hpp), damsim, and the damlab experiment lab all
// drive the same presets, and `--list-scenarios` enumerates them.
//
// This layer only DESCRIBES experiments. Execution and aggregation live in
// the experiment lab (src/exp): exp/runner fans the (sweep point × run)
// grid across worker threads, exp/aggregate reduces the per-run results,
// exp/report renders them.
//
// Layering: protocol kernel (core/protocol) → unified engine
// (core/frozen_sim) → this scenario layer → exp lab → benches/tools.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/frozen_sim.hpp"
#include "topics/dag.hpp"
#include "workload/traffic.hpp"

namespace dam::sim {

/// Which engine executes a scenario's runs in the experiment lab.
enum class EngineKind {
  kFrozen,   ///< core/frozen_sim: one publication over frozen tables
             ///< (the paper's Sec. VII regime)
  kDynamic,  ///< core/system via workload/driver: a generated traffic
             ///< stream (arrivals, popularity skew, subscription churn)
             ///< against the full message-passing engine
  kBaselineTree,    ///< baselines/steady: Scribe-style per-group dissemination
                    ///< trees over the SAME generated stream — deterministic
                    ///< routing, no gossip redundancy (head-to-head rival)
  kBaselineGossip,  ///< baselines/steady: interest-agnostic flat gossip over
                    ///< the whole population on the same stream (the
                    ///< "one big group" strawman the paper argues against)
};

/// True for engines that replay a generated workload stream (the dynamic
/// protocol engine and both steady baselines) — the lanes that accept the
/// traffic/churn/steady grid axes and produce DynamicRunResult aggregates.
[[nodiscard]] constexpr bool is_stream_engine(EngineKind engine) noexcept {
  return engine != EngineKind::kFrozen;
}

struct Scenario {
  std::string name;     ///< registry key (e.g. "fig9")
  std::string summary;  ///< one-line description for --list-scenarios

  /// Topology: topic names in insertion order (index == TopicId::value)
  /// and supertopic edges as (child index, parent index) pairs. A path
  /// listed root-first reproduces the paper's linear hierarchy.
  std::vector<std::string> topic_names;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> super_edges;

  /// Subscribers per topic, aligned with topic_names.
  std::vector<std::size_t> group_sizes;

  /// Per-topic parameters (reuse-last rule, like FrozenSimConfig).
  std::vector<core::TopicParams> params{core::TopicParams{}};

  core::FrozenFailureMode failure_mode =
      core::FrozenFailureMode::kStillborn;

  /// Outage schedule knobs; engaged iff failure_mode == kChurn.
  core::FrozenChurnConfig churn;

  /// Intra-run workers (`--threads`, 0 = hardware; orthogonal to the lab's
  /// cross-run `--jobs`): chunked table fills, wave frontiers, and spawn
  /// batches. Changes speed, never results (see
  /// core::FrozenSimConfig::threads).
  unsigned threads = 1;

  /// X axis: alive fractions to sweep (a single point is a sweep of one).
  std::vector<double> alive_sweep{1.0};

  /// Topic index the event is published in.
  std::uint32_t publish_topic = 0;

  /// Engine dispatch: kFrozen runs run_frozen_simulation over any DAG;
  /// kDynamic replays the generated `workload` stream through core/system
  /// over the same TopicDag, which must then be a tree (require_tree).
  EngineKind engine = EngineKind::kFrozen;

  /// Traffic model for the dynamic lane; ignored by the frozen engine.
  workload::WorkloadConfig workload;

  /// Simulation runs per sweep point and the base seed; run r of point p
  /// uses seed base_seed + r * 7919 + round(alive * 1000). The seed is a
  /// pure function of (base_seed, point, run) — never of the thread that
  /// executes the run — so parallel sweeps are reproducible.
  int runs = 100;
  std::uint64_t base_seed = 1;

  /// The (base_seed, point, run) seed formula — shared by both engines so
  /// a scenario's randomness is engine-independent at the seed level.
  [[nodiscard]] std::uint64_t seed_for(double alive_fraction,
                                       int run) const noexcept;

  /// Materializes the topology; topic i becomes TopicId{i} in both
  /// engines. Throws std::invalid_argument on bad edges (TopicDag
  /// validates acyclicity).
  [[nodiscard]] topics::TopicDag build_dag() const;

  /// Engine config for one (alive fraction, run index) cell. `dag` must
  /// outlive the returned config and come from build_dag().
  [[nodiscard]] core::FrozenSimConfig config_for(const topics::TopicDag& dag,
                                                 double alive_fraction,
                                                 int run) const;
};

/// The one TopicParams set of a stream engine. The dynamic engine and the
/// steady rivals configure every process alike, so a heterogeneous
/// per-topic params vector would be silently flattened: this throws
/// std::invalid_argument, naming `caller`, instead. Empty means defaults.
[[nodiscard]] const core::TopicParams& homogeneous_params(
    const Scenario& scenario, std::string_view caller);

/// The named presets (fig8–fig11, dag-diamond, churn-light/heavy, ...).
[[nodiscard]] const std::vector<Scenario>& scenario_registry();

/// Registry lookup by name; nullptr when absent.
[[nodiscard]] const Scenario* find_scenario(std::string_view name);

/// Prints the registry as an aligned name/summary listing — the shared
/// body of `--list-scenarios` in damsim and damlab. `tool` customizes the
/// trailing "run one with: <tool> --scenario=<name>" hint.
void print_registry(std::ostream& out, std::string_view tool);

/// Builds a paper-style linear-hierarchy scenario (topics "T0".."Tn",
/// root-first) — the shared skeleton of the fig8–fig11 presets.
[[nodiscard]] Scenario make_linear_scenario(std::string name,
                                            std::string summary,
                                            std::vector<std::size_t> sizes);

}  // namespace dam::sim

// Unified frozen-table engine — the one engine of the paper's simulations.
//
// Reproduces the paper's Section VII evaluation regime over an arbitrary
// topics::TopicDag (a linear hierarchy is just a path DAG):
//   * membership tables (topic table + one supertopic table per direct
//     supertopic) drawn uniformly at random and FROZEN for the whole run
//     ("these tables are initialized at the beginning of the simulation
//     and do not change");
//   * failed processes are NOT replaced in any table (pessimistic);
//   * one event is published in `publish_topic` and disseminated in
//     synchronous gossip rounds until quiescence;
//   * two failure regimes: stillborn (Figs. 8–10) and dynamic perception
//     (Fig. 11).
//
// All protocol decisions (election psel, per-entry pa, fanout without
// replacement, forward on first reception) route through core/protocol —
// the same kernel DamNode drives — so the engines cannot drift apart.
// Every frozen-lane caller (presets, benches, examples, and the Sec. VI-E
// baselines of src/baselines) describes its cell as one FrozenSimConfig;
// a linear chain is sim::make_linear_scenario(...).build_dag().
//
// One RNG stream per seed: table rows and wave frontiers are cut into
// fixed-size chunks, each drawing from its own stream forked from the run
// seed, and chunk results merge in chunk order. `threads` only decides how
// many workers fill the chunks, so it changes speed, never results.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/params.hpp"
#include "core/tables.hpp"
#include "topics/dag.hpp"
#include "util/quantiles.hpp"
#include "util/rng.hpp"
#include "util/timeline.hpp"

namespace dam::core {

enum class FrozenFailureMode {
  kStillborn,          ///< fixed failed set, chosen before the run (Figs. 8–10)
  kDynamicPerception,  ///< all alive; each send independently "sees" the
                       ///< target failed with probability 1 - alive_fraction
                       ///< (Fig. 11)
  kChurn,              ///< crash/recovery outages on a precomputed schedule
                       ///< (sim::ChurnFailures); alive_fraction is ignored
};

/// Churn regime knobs (FrozenFailureMode::kChurn): every process suffers
/// `outages` outages of `outage_length` rounds, starting uniformly in
/// [0, horizon). A process that is down when a message arrives misses it
/// for good (tables stay frozen), but keeps earlier deliveries.
struct FrozenChurnConfig {
  std::size_t outages = 1;
  std::size_t outage_length = 2;
  std::size_t horizon = 16;
};

struct FrozenSimConfig {
  const topics::TopicDag* dag = nullptr;

  /// Subscribers per topic, indexed by TopicId::value. Every topic must
  /// have at least one subscriber (as in the paper's analysis, Sec. VI-A).
  std::vector<std::size_t> group_sizes;

  /// Per-topic parameters, indexed by TopicId::value; if shorter than
  /// group_sizes the last entry (or defaults) is reused. Paper uses one
  /// setting for all groups.
  std::vector<TopicParams> params = std::vector<TopicParams>(1);

  double alive_fraction = 1.0;
  FrozenFailureMode failure_mode = FrozenFailureMode::kStillborn;
  FrozenChurnConfig churn;  ///< only read when failure_mode == kChurn

  topics::TopicId publish_topic{};
  std::uint64_t seed = 1;

  /// Workers that fill table-row and wave-frontier chunks (0 = hardware
  /// concurrency). The chunk grid never depends on it, so results are
  /// bit-identical for every value.
  unsigned threads = 1;
};

// The CSR membership arena itself (core::GroupTables) lives in
// core/tables.hpp since the dynamic engine shares the layout — this header
// keeps the frozen-lane aggregates over it. Slots of super_row align with
// TopicDag::supers().

/// The frozen tables of every group, indexed by TopicId::value.
struct FrozenTables {
  std::vector<GroupTables> groups;

  [[nodiscard]] std::size_t arena_bytes() const noexcept {
    std::size_t total = 0;
    for (const GroupTables& group : groups) total += group.arena_bytes();
    return total;
  }
};

/// Builds the frozen membership tables and the stillborn alive flags from
/// streams forked off `rng` (which is only forked, never advanced). Each
/// row is a Floyd-style distinct draw. `config.dag`, `group_sizes`, and
/// `params` must already be validated (the engine's entry point does this).
[[nodiscard]] FrozenTables build_frozen_tables(const FrozenSimConfig& config,
                                               const util::Rng& rng);

struct FrozenGroupResult {
  std::size_t size = 0;              ///< S_Ti
  std::size_t alive = 0;             ///< alive members
  std::uint64_t intra_sent = 0;      ///< events sent within the group
  std::uint64_t inter_sent = 0;      ///< events sent upward (all parents)
  std::uint64_t inter_received = 0;  ///< intergroup events received here
  std::size_t delivered = 0;         ///< alive members that delivered
  std::size_t duplicate_deliveries = 0;  ///< suppressed re-receptions

  /// True iff the group's outcome is correct for this run: every alive
  /// member delivered when the group should receive the event (it includes
  /// the publish topic), no member delivered otherwise.
  bool all_alive_delivered = false;

  /// Round of the group's first / last delivery (unset if nothing arrived).
  /// The publisher's own delivery counts as round 0.
  std::optional<std::size_t> first_delivery_round;
  std::optional<std::size_t> last_delivery_round;

  /// delivered / alive (1.0 when the group has no alive member).
  [[nodiscard]] double delivery_ratio() const {
    return alive == 0 ? 1.0
                      : static_cast<double>(delivered) /
                            static_cast<double>(alive);
  }
};

struct FrozenRunResult {
  std::vector<FrozenGroupResult> groups;  ///< indexed by TopicId::value
  std::size_t rounds = 0;                 ///< rounds until quiescence
  std::uint64_t total_messages = 0;

  /// Per-delivery latency distribution. With one publication at round 0
  /// the latency of a delivery IS its round, recorded through the same
  /// note_delivery path as the timeline (the chunk-order merge keeps it
  /// deterministic for every thread count).
  util::QuantileSketch latency_sketch;

  /// Deliveries a perfectly reliable run would make: alive members summed
  /// over every group the event should reach (the publish topic's ancestor
  /// closure) — the denominator of the reliability-vs-deadline curve.
  std::uint64_t expected_deliveries = 0;

  /// Run timeline: first-time deliveries per round (round 0 is the
  /// publisher's own delivery), noted after each round's chunk-order
  /// merge, so it never touches the RNG streams. The frozen engine's only
  /// per-process bookkeeping is the delivered bitmap (one bit per member;
  /// seen-sets and recovery do not exist here), sampled as the
  /// delivered_bytes gauge of every window the run covers.
  util::Timeline timeline;

  /// Wall time split: membership-table construction vs everything after it
  /// (publisher pick + dissemination waves + accounting). At giant S the
  /// two differ by orders of magnitude, so benches report them separately.
  double table_build_seconds = 0.0;
  double dissemination_seconds = 0.0;

  /// Contiguous bytes held by the membership arenas (O(S·k), the paper's
  /// per-process-logarithmic state summed over the system).
  std::size_t table_bytes = 0;

  [[nodiscard]] bool all_groups_delivered() const {
    for (const auto& group : groups) {
      if (!group.all_alive_delivered) return false;
    }
    return true;
  }
};

/// Runs one publication to quiescence and reports per-group counters.
[[nodiscard]] FrozenRunResult run_frozen_simulation(
    const FrozenSimConfig& config);

/// Parameters actually applied to topic `topic` under `config` (resolves
/// the "reuse last entry" rule; empty vector falls back to defaults).
[[nodiscard]] const TopicParams& params_for_topic(const FrozenSimConfig& config,
                                                  std::size_t topic);

}  // namespace dam::core

// StaticSimulation — the paper's Section VII experiment setting, as a thin
// adapter over the unified frozen-table engine (core/frozen_sim.hpp).
//
// Historically this was a standalone engine with its own copy of the
// protocol decision logic; today it only translates the linear-hierarchy
// config below into a path TopicDag and hands off to
// run_frozen_simulation, which routes every decision (election psel,
// per-entry pa, fanout without replacement, forward on first reception)
// through the shared protocol kernel (core/protocol.hpp). The config and
// result structs are preserved so the Figure 8–11 benches and the damsim
// tool keep compiling unchanged; per-seed counters are bit-for-bit those
// of a direct frozen_sim call (tests/core/engine_agreement_test.cpp).
//
// The setting it reproduces:
//   * a linear hierarchy of `levels` topics (index 0 = root T0);
//   * membership tables drawn uniformly at random and FROZEN for the run;
//   * failed processes are NOT replaced in any table (pessimistic);
//   * one event published in the bottom-most group, disseminated in
//     synchronous gossip rounds until quiescence;
//   * two failure regimes: stillborn (Figs. 8–10) and dynamic perception
//     (Fig. 11).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/params.hpp"

namespace dam::core {

enum class StaticFailureMode {
  kStillborn,          ///< fixed failed set, chosen before the run (Figs. 8–10)
  kDynamicPerception,  ///< all alive; each send independently "sees" the
                       ///< target failed with probability 1 - alive_fraction
                       ///< (Fig. 11)
};

struct StaticSimConfig {
  /// Group size per level; index 0 = root T0. Paper: {10, 100, 1000}.
  std::vector<std::size_t> group_sizes{10, 100, 1000};

  /// Per-level parameters; if shorter than group_sizes the last entry (or
  /// defaults) is reused. Paper uses one setting for all groups.
  std::vector<TopicParams> params{TopicParams{}};

  double alive_fraction = 1.0;
  StaticFailureMode failure_mode = StaticFailureMode::kStillborn;

  /// Level where the event is published (default: bottom-most).
  std::optional<std::size_t> publish_level;

  std::uint64_t seed = 1;
};

struct StaticGroupResult {
  std::size_t size = 0;           ///< S_Ti
  std::size_t alive = 0;          ///< alive members
  std::uint64_t intra_sent = 0;   ///< events sent within the group (Fig. 8)
  std::uint64_t inter_sent = 0;   ///< events sent from this group upward
  std::uint64_t inter_received = 0;  ///< intergroup events *received* by this
                                     ///< group from below (Fig. 9 plots this)
  std::size_t delivered = 0;      ///< alive members that delivered the event
  bool all_alive_delivered = false;  ///< reliability indicator (Sec. VI-D)

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

struct StaticRunResult {
  std::vector<StaticGroupResult> groups;  ///< indexed by level (0 = root)
  std::size_t rounds = 0;                 ///< rounds until quiescence
  std::uint64_t total_messages = 0;

  [[nodiscard]] bool all_groups_delivered() const {
    for (const auto& group : groups) {
      if (!group.all_alive_delivered) return false;
    }
    return true;
  }
};

/// Runs one publication to quiescence and reports per-group counters.
[[nodiscard]] StaticRunResult run_static_simulation(
    const StaticSimConfig& config);

/// Parameters actually applied to level `level` under `config` (resolves
/// the "reuse last entry" rule).
[[nodiscard]] const TopicParams& params_for_level(const StaticSimConfig& config,
                                                  std::size_t level);

}  // namespace dam::core

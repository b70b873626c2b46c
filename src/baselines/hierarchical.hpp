// Baseline (c): hierarchical gossip-based broadcast ([10], Sec. VI-E).
//
// The population is split into N small groups of m processes each,
// INDEPENDENTLY of interests. Every process keeps two tables: an
// intra-group view (size ln(m)+c1 fanout) and an inter-group view of
// contacts in ln(N)+c2 other groups. An infected process gossips inside its
// group and, with probability 1/m per inter-view entry, across groups — so
// each fully-infected group emits about ln(N)+c2 intergroup messages,
// matching the second-level gossip of [10]. Memory is
// ln(m)+c1+ln(N)+c2 per process; reliability e^{-N·e^{-c1}-e^{-c2}}; but
// since grouping ignores interests, parasite deliveries abound.
//
// Unlike (a) and (b), this baseline keeps its own engine and tables: its
// groups are random and interest-agnostic, and its intergroup leg is a
// 1/m coin per inter-view entry with no psel/pa election. No topic DAG of
// core/frozen_sim reproduces either, so it only shares the cell
// description (core::FrozenSimConfig) and the result record.
#pragma once

#include <cstdint>

#include "baselines/baseline.hpp"

namespace dam::baselines {

struct HierarchicalConfig {
  std::size_t group_count = 16;  ///< N
  double c1 = 5.0;               ///< intra-group fanout constant
  double c2 = 5.0;               ///< inter-group fanout constant
};

/// Runs one dissemination of an event of `config.publish_topic` under the
/// two-level scheme; the channel coin is the publish topic's psucc.
[[nodiscard]] BaselineResult run_hierarchical(
    const core::FrozenSimConfig& config, const HierarchicalConfig& hierarchy);

}  // namespace dam::baselines

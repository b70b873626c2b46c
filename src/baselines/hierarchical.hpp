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
// Messages per publication are therefore about
//   n·⌈ln m + c1⌉ + n·⌈ln N + c2⌉/m
// (11,227 on the paper chain: n = 1110, N = 16, m = 70, c1 = c2 = 5), not
// the Appendix's Eq. 10 (analysis::hierarchical_total_messages, 18,775),
// which charges ln N + c2 intergroup messages to every PROCESS rather than
// to every group.
//
// Unlike (a) and (b), this baseline keeps its own tables: its groups are
// random and interest-agnostic, and its intergroup leg is a 1/m coin per
// inter-view entry with no psel/pa election. No topic DAG of
// core/frozen_sim reproduces either, so it shares the cell description
// (core::FrozenSimConfig), the run's start (core::draw_frozen_start: the
// same dead processes and publisher as daMulticast), the wave loop and
// the result record; the grouping and inter views are drawn after the
// start.
#pragma once

#include <cstdint>

#include "baselines/baseline.hpp"

namespace dam::baselines {

/// N, the number of interest-agnostic groups (capped at the population).
inline constexpr std::size_t kHierarchicalGroups = 16;

/// Runs one dissemination of an event of `config.publish_topic` under the
/// two-level scheme. The publish topic's params supply the channel coin
/// (psucc) and both fanout constants: c1 = c2 = c. Intra-group sends are
/// intra_sent, intergroup sends inter_sent, of the sender's topic row;
/// intergroup messages that get through are inter_received of the
/// receiver's.
[[nodiscard]] core::FrozenRunResult run_hierarchical(
    const core::FrozenSimConfig& config);

}  // namespace dam::baselines

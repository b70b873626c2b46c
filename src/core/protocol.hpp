// Protocol kernel — the gossip decision logic of daMulticast, implemented
// once and shared by every engine.
//
// The paper's dissemination decisions (Figs. 5 and 7) used to be coded
// three times — in DamNode, in the static figure engine, and in the DAG
// engine. They live here now, as pure functions of (params, rng):
//
//   * self-election for the intergroup leg with probability psel = g/S
//     (Fig. 7 lines 3–4);
//   * per-supertopic-table-entry forwarding with probability pa = a/z
//     (Fig. 7 lines 5–7);
//   * intra-group fanout of ln(S)+c distinct topic-table entries, drawn
//     without replacement — the Ω set (Fig. 7 lines 8–14);
//   * the per-message channel coin psucc (Sec. III-A best-effort links).
//
// Forward-on-first-reception duplicate suppression (Fig. 5 lines 5–10) is
// engine state, not a decision: the dynamic engine keeps it as one bit
// column per live publication (core/system.hpp), the frozen engine as its
// delivered bitmap.
//
// Consumers: core/node.cpp (message-passing engine), core/frozen_sim.cpp
// (unified frozen-table engine), baselines/broadcast.cpp (the flat wave
// loop of baseline (a)), net/transport.cpp (channel coin). Nothing here touches engine state, so the kernel is unit-
// testable in isolation (tests/core/protocol_test.cpp).
//
// RNG discipline: every helper documents exactly how many draws it makes,
// because engines rely on reproducible streams (same seed ⇒ same run).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/params.hpp"
#include "util/rng.hpp"

namespace dam::core::protocol {

/// Election for the intergroup leg: true with probability psel = g/S.
/// Exactly one RNG draw (zero when psel clamps to 0 or 1).
[[nodiscard]] bool elects_self(const TopicParams& params,
                               std::size_t group_size, util::Rng& rng);

/// Per-entry forwarding decision once elected: true with probability
/// pa = a/z. Exactly one RNG draw (zero when pa clamps to 0 or 1).
[[nodiscard]] bool forwards_to_entry(const TopicParams& params,
                                     util::Rng& rng);

/// The per-message channel coin (best-effort links, Sec. III-A).
[[nodiscard]] bool channel_delivers(double psucc, util::Rng& rng);

/// The complete intergroup leg against one supertopic table (Fig. 7 lines
/// 3–7): elect once, then hit each entry independently with pa, invoking
/// `fn(entry)` for every selected target in table order. An empty table
/// skips the election entirely (root processes send nothing upward).
/// RNG draws: one psel coin when the table is non-empty, then one pa coin
/// per entry when elected. Takes a span so engines can iterate rows of a
/// flat CSR arena without materializing per-process vectors.
template <typename Entry, typename Fn>
void for_each_intergroup_target(const TopicParams& params,
                                std::size_t group_size,
                                std::span<const Entry> super_table,
                                util::Rng& rng, Fn&& fn) {
  if (super_table.empty() || !elects_self(params, group_size, rng)) return;
  for (const Entry& entry : super_table) {
    if (forwards_to_entry(params, rng)) fn(entry);
  }
}

template <typename Entry, typename Fn>
void for_each_intergroup_target(const TopicParams& params,
                                std::size_t group_size,
                                const std::vector<Entry>& super_table,
                                util::Rng& rng, Fn&& fn) {
  for_each_intergroup_target(params, group_size,
                             std::span<const Entry>(super_table), rng,
                             std::forward<Fn>(fn));
}

/// The intra-group gossip leg (Fig. 7 lines 8–14): fanout(S) = ceil(ln S
/// + c) distinct targets drawn uniformly from the topic table without
/// replacement. Returns fewer when the table is smaller than the fanout.
/// The span form reads CSR arena rows / shared views without materializing
/// a vector first.
template <typename Entry>
[[nodiscard]] std::vector<Entry> fanout_targets(
    const TopicParams& params, std::size_t group_size,
    std::span<const Entry> topic_table, util::Rng& rng) {
  return rng.sample(topic_table, params.fanout(group_size));
}

template <typename Entry>
[[nodiscard]] std::vector<Entry> fanout_targets(
    const TopicParams& params, std::size_t group_size,
    const std::vector<Entry>& topic_table, util::Rng& rng) {
  return rng.sample(topic_table, params.fanout(group_size));
}

/// `fanout_targets` into a caller-reused buffer — the wave-loop form: zero
/// allocation per sender once `out` has warmed up, identical RNG stream and
/// result sequence as the returning overload.
template <typename Entry>
void fanout_targets_into(const TopicParams& params, std::size_t group_size,
                         std::span<const Entry> topic_table, util::Rng& rng,
                         std::vector<Entry>& out) {
  rng.sample_into(topic_table, params.fanout(group_size), out);
}

}  // namespace dam::core::protocol

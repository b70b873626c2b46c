// Baseline (a): gossip-based broadcast (Sec. VI-E).
//
// Every event is broadcast to the WHOLE system: all n processes share one
// membership table of size (b+1)·ln(n) and forward with fanout ln(n)+c,
// regardless of interests. Reliability is the single-group e^{-e^{-c}} and
// message complexity O(n·ln n) — but processes receive events of topics
// they never subscribed to (parasite deliveries), which this baseline
// exists to quantify.
//
// The tables are frozen_sim's: one group of n processes drawn by
// core::build_frozen_tables. The waves cannot be frozen_sim's, because
// interest is per process here while frozen_sim groups processes by topic;
// so baselines::run_waves gossips per process, drawing targets with
// protocol::fanout_targets_into, and charges each process's topic row.
#pragma once

#include "baselines/baseline.hpp"
#include "core/tables.hpp"

namespace dam::baselines {

/// Runs one broadcast dissemination of an event published on
/// `config.publish_topic`. Every process participates; processes whose
/// topic does not include the publish topic receive parasites. All sends
/// are intra_sent of the sender's topic row.
[[nodiscard]] core::FrozenRunResult run_broadcast(
    const core::FrozenSimConfig& config);

/// The membership tables run_broadcast gossips over: the one group of
/// `config`'s whole population (laid out topic-major) that
/// core::build_frozen_tables draws for a one-topic config with the same
/// seed, publish-topic params and failure regime.
[[nodiscard]] core::GroupTables broadcast_tables(
    const core::FrozenSimConfig& config);

}  // namespace dam::baselines

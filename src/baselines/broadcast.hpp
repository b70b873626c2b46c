// Baselines (a) gossip-based broadcast and (b) gossip-based multicast
// (Sec. VI-E, Sec. IV-A pattern (1)): one flat gossip group each.
//
// (a) broadcasts every event to the WHOLE system: all n processes share
// one membership table of size (b+1)·ln(n) and forward with fanout
// ln(n)+c, regardless of interests. Reliability is the single-group
// e^{-e^{-c}} and message complexity O(n·ln n) — but processes receive
// events of topics they never subscribed to (parasite deliveries), which
// this baseline exists to quantify.
//
// (b) keeps one gossip group per topic: a subscriber of Ta joins the group
// of Ta AND of every subtopic of Ta, so an event of Tb is disseminated in
// group Tb only, whose members are exactly Tb's audience. No parasite
// messages, but a process interested in a high topic carries one
// membership table per (sub)topic — t tables in a depth-t chain — which is
// the memory-complexity cost daMulticast eliminates
// (analysis::multicast_memory_per_process).
//
// Both gossip over frozen_sim's rows (flat_tables). Interest is per process
// here while frozen_sim groups processes by topic, so baselines::run_waves
// gossips per process, drawing targets with protocol::fanout_targets_into,
// and charges each process's topic row.
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

/// Runs one multicast dissemination of an event of `config.publish_topic`:
/// a flat gossip inside group T_publish, the processes whose topic
/// includes the publish topic. All sends are intra_sent of the sender's
/// topic row; the other rows keep their members and stay clean.
[[nodiscard]] core::FrozenRunResult run_multicast(
    const core::FrozenSimConfig& config);

/// The membership tables of a flat gossip group of `size` processes: the
/// one group core::build_frozen_tables draws for a one-topic config with
/// `config`'s seed and publish-topic params.
[[nodiscard]] core::GroupTables flat_tables(
    const core::FrozenSimConfig& config, std::size_t size);

}  // namespace dam::baselines

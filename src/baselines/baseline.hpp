// Shared surface of the Section VI-E baseline algorithms.
//
// The three baselines ((a) gossip broadcast, (b) gossip multicast,
// (c) hierarchical gossip broadcast) take the same cell description as
// daMulticast — one core::FrozenSimConfig — and run in the same
// frozen-table, synchronous-round regime as the paper's simulation. The
// paper compares them on the condition that "for fairness, all approaches
// use the same underlying membership algorithm": (a) and (b) draw their
// tables with core::build_frozen_tables and pick gossip targets with the
// protocol kernel, exactly as daMulticast's intra-group leg does; (c) keeps
// its own two-level tables (see hierarchical.hpp for why).
//
// Processes are laid out topic-major: topic 0's members first, then topic
// 1's, and so on. A process is interested in the event iff its topic
// includes the publish topic. The baselines have no outage schedule, so
// FrozenFailureMode::kChurn is rejected.
#pragma once

#include <cstdint>
#include <vector>

#include "core/frozen_sim.hpp"

namespace dam::baselines {

struct BaselineResult {
  std::uint64_t messages_sent = 0;
  std::size_t interested_alive = 0;       ///< alive processes wanting the event
  std::size_t delivered_interested = 0;   ///< of those, how many received it
  std::uint64_t parasite_deliveries = 0;  ///< deliveries to uninterested procs
  bool all_interested_delivered = false;
  std::size_t rounds = 0;

  [[nodiscard]] double delivery_ratio() const {
    return interested_alive == 0
               ? 1.0
               : static_cast<double>(delivered_interested) /
                     static_cast<double>(interested_alive);
  }
};

/// The whole population of a cell, laid out topic-major.
struct Population {
  std::vector<bool> interested;            ///< topic includes publish topic
  std::vector<std::uint32_t> publishers;   ///< members of the publish topic

  [[nodiscard]] std::size_t size() const { return interested.size(); }
};

/// Validates `config` for a baseline run (a DAG, one non-empty group per
/// topic, a valid publish topic, no kChurn) and lays its processes out.
/// Throws std::invalid_argument naming `who` otherwise.
[[nodiscard]] Population lay_out(const core::FrozenSimConfig& config,
                                 const char* who);

/// `config` collapsed onto one group of `size` processes: `dag` must be a
/// one-topic DAG that outlives the result. Keeps the publish topic's
/// params, the failure regime, the seed and the worker count.
[[nodiscard]] core::FrozenSimConfig one_group_config(
    const core::FrozenSimConfig& config, const topics::TopicDag& dag,
    std::size_t size);

/// Fills the delivery counters of `result` from a finished flat run:
/// alive deliveries count as interested or as parasites.
void tally(const Population& population, const std::vector<bool>& alive,
           const std::vector<bool>& delivered, BaselineResult& result);

}  // namespace dam::baselines

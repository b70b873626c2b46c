// Shared surface of the Section VI-E baseline algorithms.
//
// The three baselines ((a) gossip broadcast, (b) gossip multicast,
// (c) hierarchical gossip broadcast) take the same cell description as
// daMulticast — one core::FrozenSimConfig — run in the same frozen-table,
// synchronous-round regime as the paper's simulation, and return the same
// core::FrozenRunResult, one row per topic, so exp::run_sweep aggregates
// and reports them exactly as it does run_frozen_simulation (engine kinds
// sim::EngineKind::kBroadcast / kMulticast / kHierarchical). The paper
// compares them on the condition that "for fairness, all approaches use
// the same underlying membership algorithm": (a) and (b) gossip over rows
// of core::build_frozen_tables and pick targets with the protocol kernel,
// exactly as daMulticast's intra-group leg does; (c) keeps its own
// two-level tables (see hierarchical.hpp for why).
//
// Every run starts from frozen_sim's own core::draw_frozen_start, so run k
// of a baseline sees the same dead processes and the same publisher as
// run k of daMulticast. Processes are laid out topic-major, as the start
// numbers them: topic 0's members first, then topic 1's, and so on. A
// process is interested in the event iff its topic includes the publish
// topic. Each row is graded by frozen_sim's own core::grade_frozen_run: an
// interested row is correct when every alive member delivered, an
// uninterested row when none did — its `delivered` is its parasite count.
// The baselines have no outage schedule, so FrozenFailureMode::kChurn is
// rejected.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/frozen_sim.hpp"
#include "util/rng.hpp"

namespace dam::baselines {

/// The whole population of a cell, laid out topic-major.
struct Population {
  std::vector<std::uint32_t> topic;  ///< each process's topic

  [[nodiscard]] std::size_t size() const { return topic.size(); }
};

/// Validates `config` for a baseline run (a DAG, one non-empty group per
/// topic, a valid publish topic, no kChurn) and lays its processes out.
/// Throws std::invalid_argument naming `who` otherwise.
[[nodiscard]] Population lay_out(const core::FrozenSimConfig& config,
                                 const char* who);

/// Delivers to one process: applies the channel coin and the failure
/// regime, delivers on first reception, charges a duplicate to the
/// receiver's topic row otherwise, and returns whether the message got
/// through.
using Send = std::function<bool(std::uint32_t target)>;

/// The wave loop of every baseline, started once its tables and `start`
/// are drawn. From `start.publisher` (none: nobody publishes) it runs
/// synchronous rounds to quiescence, in which `gossip(sender, send)` emits
/// each frontier member's messages and charges them to the sender's topic
/// row; `start.alive` is the stillborn regime's liveness. Grades the run
/// into `result` through core::grade_frozen_run, frozen_sim's own grading,
/// with every row's size, alive and delivered counters, and sets its wall
/// times (tables and start from `build_started` to this call, waves after
/// it).
void run_waves(const core::FrozenSimConfig& config,
               const Population& population, const core::FrozenStart& start,
               util::Rng& rng,
               const std::function<void(std::uint32_t, const Send&)>& gossip,
               std::chrono::steady_clock::time_point build_started,
               core::FrozenRunResult& result);

}  // namespace dam::baselines

// A linear topic chain T0 ⊃ T1 ⊃ ... (index 0 = root) as a frozen-lane
// cell, for tests. The path DAG comes from sim::make_linear_scenario; the
// configs a chain hands out point at it, so the chain must outlive them.
// Audience sums a run's topic rows by interest in the publish topic.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/frozen_sim.hpp"
#include "sim/scenario.hpp"

namespace dam::testing {

struct Chain {
  sim::Scenario scenario;
  topics::TopicDag dag;

  /// Defaults to the paper's Sec. VII-A sizes S = {10, 100, 1000}.
  explicit Chain(std::vector<std::size_t> sizes = {10, 100, 1000})
      : scenario(sim::make_linear_scenario("chain", "", std::move(sizes))),
        dag(scenario.build_dag()) {}

  /// One publication in the bottom group, default params, stillborn.
  [[nodiscard]] core::FrozenSimConfig config(
      std::uint64_t seed, double alive_fraction = 1.0) const {
    core::FrozenSimConfig config = scenario.config_for(dag, alive_fraction, 0);
    config.seed = seed;
    return config;
  }

  /// config(seed), publishing in `level` over channels of success `psucc`.
  [[nodiscard]] core::FrozenSimConfig publish_at(std::uint32_t level,
                                                 std::uint64_t seed,
                                                 double psucc = 0.85) const {
    core::FrozenSimConfig cell = config(seed);
    cell.publish_topic = topics::TopicId{level};
    cell.params.front().psucc = psucc;
    return cell;
  }
};

/// A frozen-lane run's rows summed by interest in `config`'s publish
/// topic: the interested alive members, how many of them delivered, and
/// the parasite deliveries of the uninterested rows.
struct Audience {
  std::size_t alive = 0;
  std::size_t delivered = 0;
  std::size_t parasites = 0;

  Audience(const core::FrozenSimConfig& config,
           const core::FrozenRunResult& run) {
    for (std::uint32_t topic = 0; topic < run.groups.size(); ++topic) {
      const core::FrozenGroupResult& row = run.groups[topic];
      if (config.dag->includes(topics::TopicId{topic}, config.publish_topic)) {
        alive += row.alive;
        delivered += row.delivered;
      } else {
        parasites += row.delivered;
      }
    }
  }

  [[nodiscard]] bool all_delivered() const { return delivered == alive; }
  [[nodiscard]] double ratio() const {
    return alive == 0 ? 1.0
                      : static_cast<double>(delivered) /
                            static_cast<double>(alive);
  }
};

}  // namespace dam::testing

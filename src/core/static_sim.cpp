#include "core/static_sim.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/frozen_sim.hpp"
#include "topics/dag.hpp"

namespace dam::core {

const TopicParams& params_for_level(const StaticSimConfig& config,
                                    std::size_t level) {
  static const TopicParams kDefaults{};
  if (config.params.empty()) return kDefaults;
  return config.params[std::min(level, config.params.size() - 1)];
}

StaticRunResult run_static_simulation(const StaticSimConfig& config) {
  const std::size_t levels = config.group_sizes.size();
  if (levels == 0) {
    throw std::invalid_argument("run_static_simulation: no groups");
  }
  const std::size_t publish_level = config.publish_level.value_or(levels - 1);
  if (publish_level >= levels) {
    throw std::invalid_argument("run_static_simulation: bad publish level");
  }

  // A linear hierarchy is a path DAG: add topics root-first so topic id ==
  // level.
  topics::TopicDag dag;
  std::vector<topics::DagTopicId> ids;
  ids.reserve(levels);
  for (std::size_t level = 0; level < levels; ++level) {
    // Built with += rather than operator+ to sidestep GCC's -Wrestrict
    // false positive on inlined string concatenation (GCC bug 105329).
    std::string name = "L";
    name += std::to_string(level);
    ids.push_back(dag.add_topic(name));
    if (level > 0) dag.add_super(ids[level], ids[level - 1]);
  }

  FrozenSimConfig frozen;
  frozen.dag = &dag;
  frozen.group_sizes = config.group_sizes;
  frozen.params = config.params;
  frozen.alive_fraction = config.alive_fraction;
  frozen.failure_mode = config.failure_mode == StaticFailureMode::kStillborn
                            ? FrozenFailureMode::kStillborn
                            : FrozenFailureMode::kDynamicPerception;
  frozen.publish_topic = ids[publish_level];
  frozen.seed = config.seed;
  const FrozenRunResult run = run_frozen_simulation(frozen);

  StaticRunResult result;
  result.rounds = run.rounds;
  result.total_messages = run.total_messages;
  result.groups.resize(levels);
  for (std::size_t level = 0; level < levels; ++level) {
    const FrozenGroupResult& from = run.groups[level];
    StaticGroupResult& to = result.groups[level];
    to.size = from.size;
    to.alive = from.alive;
    to.intra_sent = from.intra_sent;
    to.inter_sent = from.inter_sent;
    to.inter_received = from.inter_received;
    to.delivered = from.delivered;
    // Historical semantics: a group is "all delivered" iff every alive
    // member delivered — groups below the publish level are NOT treated as
    // vacuously correct (unlike the DAG view's clean-group rule).
    to.all_alive_delivered = from.delivered == from.alive;
    to.first_delivery_round = from.first_delivery_round;
    to.last_delivery_round = from.last_delivery_round;
  }
  return result;
}

}  // namespace dam::core

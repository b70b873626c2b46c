#include "baselines/multicast.hpp"

#include <algorithm>

namespace dam::baselines {

BaselineResult run_multicast(const core::FrozenSimConfig& config) {
  // Group T_publish holds every interested process (supertopic subscribers
  // join all subtopic groups), so multicast sends no parasites by design.
  const Population population = lay_out(config, "run_multicast");
  const auto audience = static_cast<std::size_t>(std::count(
      population.interested.begin(), population.interested.end(), true));
  topics::TopicDag group_dag;
  group_dag.add_topic("audience");
  const core::FrozenRunResult run = core::run_frozen_simulation(
      one_group_config(config, group_dag, audience));
  const core::FrozenGroupResult& group = run.groups.front();
  BaselineResult result;
  result.messages_sent = run.total_messages;
  result.interested_alive = group.alive;
  result.delivered_interested = group.delivered;
  result.all_interested_delivered = group.all_alive_delivered;
  result.rounds = run.rounds;
  return result;
}

}  // namespace dam::baselines

#include "baselines/multicast.hpp"

#include <utility>

namespace dam::baselines {

core::FrozenRunResult run_multicast(const core::FrozenSimConfig& config) {
  // Group T_publish holds every interested process (supertopic subscribers
  // join all subtopic groups), so multicast sends no parasites by design.
  (void)lay_out(config, "run_multicast");
  std::size_t audience = 0;
  for (std::uint32_t topic = 0; topic < config.dag->size(); ++topic) {
    if (config.dag->includes(topics::TopicId{topic}, config.publish_topic)) {
      audience += config.group_sizes[topic];
    }
  }
  topics::TopicDag group_dag;
  group_dag.add_topic("audience");
  core::FrozenRunResult run = core::run_frozen_simulation(
      one_group_config(config, group_dag, audience));
  core::FrozenGroupResult group = std::move(run.groups.front());
  // Every other row is empty: its interested members sit in the publish
  // row, and its uninterested ones take no part. Empty rows are vacuously
  // correct, as in frozen_sim.
  core::FrozenGroupResult empty;
  empty.all_alive_delivered = true;
  run.groups.assign(config.dag->size(), empty);
  run.groups[config.publish_topic.value] = std::move(group);
  return run;
}

}  // namespace dam::baselines

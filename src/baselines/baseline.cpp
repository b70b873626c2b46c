#include "baselines/baseline.hpp"

#include <stdexcept>
#include <string>

namespace dam::baselines {

Population lay_out(const core::FrozenSimConfig& config, const char* who) {
  const auto fail = [who](const char* what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  if (config.dag == nullptr) fail("no dag");
  const topics::TopicDag& dag = *config.dag;
  if (config.group_sizes.size() != dag.size()) {
    fail("group_sizes must cover every topic");
  }
  if (config.publish_topic.value >= dag.size()) fail("bad publish topic");
  if (config.failure_mode == core::FrozenFailureMode::kChurn) {
    fail("the baselines have no churn regime");
  }
  Population population;
  for (std::uint32_t topic = 0; topic < dag.size(); ++topic) {
    const std::size_t size = config.group_sizes[topic];
    if (size == 0) fail("empty group");
    const bool interested =
        dag.includes(topics::DagTopicId{topic}, config.publish_topic);
    for (std::size_t i = 0; i < size; ++i) {
      if (topic == config.publish_topic.value) {
        population.publishers.push_back(
            static_cast<std::uint32_t>(population.size()));
      }
      population.interested.push_back(interested);
    }
  }
  return population;
}

core::FrozenSimConfig one_group_config(const core::FrozenSimConfig& config,
                                       const topics::TopicDag& dag,
                                       std::size_t size) {
  core::FrozenSimConfig group;
  group.dag = &dag;
  group.group_sizes = {size};
  group.params = {core::params_for_topic(config, config.publish_topic.value)};
  group.alive_fraction = config.alive_fraction;
  group.failure_mode = config.failure_mode;
  group.seed = config.seed;
  group.threads = config.threads;
  return group;
}

void tally(const Population& population, const std::vector<bool>& alive,
           const std::vector<bool>& delivered, BaselineResult& result) {
  for (std::size_t i = 0; i < population.size(); ++i) {
    if (!alive[i]) continue;
    if (population.interested[i]) {
      ++result.interested_alive;
      if (delivered[i]) ++result.delivered_interested;
    } else if (delivered[i]) {
      ++result.parasite_deliveries;
    }
  }
  result.all_interested_delivered =
      result.delivered_interested == result.interested_alive;
}

}  // namespace dam::baselines

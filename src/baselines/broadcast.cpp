#include "baselines/broadcast.hpp"

#include <utility>

#include "core/protocol.hpp"
#include "util/rng.hpp"

namespace dam::baselines {

core::GroupTables broadcast_tables(const core::FrozenSimConfig& config) {
  const Population population = lay_out(config, "broadcast_tables");
  topics::TopicDag flat;
  flat.add_topic("all");
  const core::FrozenSimConfig group =
      one_group_config(config, flat, population.size());
  return std::move(
      core::build_frozen_tables(group, util::Rng(group.seed)).groups[0]);
}

BaselineResult run_broadcast(const core::FrozenSimConfig& config) {
  const Population population = lay_out(config, "run_broadcast");
  const core::GroupTables tables = broadcast_tables(config);
  const core::TopicParams& params =
      core::params_for_topic(config, config.publish_topic.value);
  const bool stillborn =
      config.failure_mode == core::FrozenFailureMode::kStillborn;
  const double fail_probability = 1.0 - config.alive_fraction;
  // build_frozen_tables only forks the run stream, so the waves start from
  // the seed's first draw, as frozen_sim's publisher pick does.
  util::Rng rng(config.seed);

  std::vector<std::uint32_t> candidates;
  for (std::uint32_t p : population.publishers) {
    if (tables.alive[p]) candidates.push_back(p);
  }
  BaselineResult result;
  std::vector<bool> delivered(population.size(), false);
  if (!candidates.empty()) {
    std::vector<std::uint32_t> frontier{
        candidates[rng.below(candidates.size())]};
    delivered[frontier.front()] = true;
    std::vector<std::uint32_t> next;
    std::vector<std::uint32_t> targets;
    while (!frontier.empty()) {
      ++result.rounds;
      next.clear();
      for (std::uint32_t sender : frontier) {
        core::protocol::fanout_targets_into(params, population.size(),
                                            tables.topic_row(sender), rng,
                                            targets);
        result.messages_sent += targets.size();
        for (std::uint32_t target : targets) {
          if (!core::protocol::channel_delivers(params.psucc, rng)) continue;
          if (stillborn ? !tables.alive[target]
                        : rng.bernoulli(fail_probability)) {
            continue;  // failed, or perceived failed
          }
          if (!delivered[target]) {
            delivered[target] = true;
            next.push_back(target);
          }
        }
      }
      frontier.swap(next);
    }
  }
  tally(population, tables.alive, delivered, result);
  return result;
}

}  // namespace dam::baselines

#include "baselines/broadcast.hpp"

#include <chrono>
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

core::FrozenRunResult run_broadcast(const core::FrozenSimConfig& config) {
  const Population population = lay_out(config, "run_broadcast");
  const auto build_started = std::chrono::steady_clock::now();
  const core::GroupTables tables = broadcast_tables(config);
  const core::TopicParams& params =
      core::params_for_topic(config, config.publish_topic.value);
  core::FrozenRunResult result;
  result.table_bytes = tables.arena_bytes();
  // build_frozen_tables only forks the run stream, so the waves start from
  // the seed's first draw, as frozen_sim's publisher pick does.
  util::Rng rng(config.seed);
  std::vector<std::uint32_t> targets;
  run_waves(
      config, population, tables.alive, rng,
      [&](std::uint32_t sender, const Send& send) {
        core::protocol::fanout_targets_into(params, population.size(),
                                            tables.topic_row(sender), rng,
                                            targets);
        result.groups[population.topic[sender]].intra_sent += targets.size();
        for (std::uint32_t target : targets) send(target);
      },
      build_started, result);
  return result;
}

}  // namespace dam::baselines

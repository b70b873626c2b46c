#include "baselines/broadcast.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/protocol.hpp"
#include "util/rng.hpp"

namespace dam::baselines {

namespace {

/// One flat gossip over the processes whose topic includes the publish
/// topic, or over every process when `whole_population`.
core::FrozenRunResult run_flat_gossip(const core::FrozenSimConfig& config,
                                      bool whole_population, const char* who) {
  const Population population = lay_out(config, who);
  const auto build_started = std::chrono::steady_clock::now();
  // The group's members in pid order: member k owns table row k.
  std::vector<std::uint32_t> members;
  for (std::uint32_t p = 0; p < population.size(); ++p) {
    if (whole_population ||
        config.dag->includes(topics::TopicId{population.topic[p]},
                             config.publish_topic)) {
      members.push_back(p);
    }
  }
  const core::GroupTables tables = flat_tables(config, members.size());
  util::Rng rng(config.seed);
  const core::FrozenStart start = core::draw_frozen_start(config, rng);
  const core::TopicParams& params =
      core::params_for_topic(config, config.publish_topic.value);
  core::FrozenRunResult result;
  result.table_bytes = tables.arena_bytes();
  std::vector<std::uint32_t> targets;
  run_waves(
      config, population, start, rng,
      [&](std::uint32_t sender, const Send& send) {
        const auto row =
            std::lower_bound(members.begin(), members.end(), sender);
        core::protocol::fanout_targets_into(
            params, members.size(), tables.topic_row(row - members.begin()),
            rng, targets);
        result.groups[population.topic[sender]].intra_sent += targets.size();
        for (std::uint32_t target : targets) send(members[target]);
      },
      build_started, result);
  return result;
}

}  // namespace

core::GroupTables flat_tables(const core::FrozenSimConfig& config,
                              std::size_t size) {
  topics::TopicDag flat;
  flat.add_topic("flat");
  core::FrozenSimConfig group;
  group.dag = &flat;
  group.group_sizes = {size};
  group.params = {core::params_for_topic(config, config.publish_topic.value)};
  group.seed = config.seed;
  group.threads = config.threads;
  return std::move(
      core::build_frozen_tables(group, util::Rng(group.seed)).groups[0]);
}

core::FrozenRunResult run_broadcast(const core::FrozenSimConfig& config) {
  return run_flat_gossip(config, true, "run_broadcast");
}

core::FrozenRunResult run_multicast(const core::FrozenSimConfig& config) {
  return run_flat_gossip(config, false, "run_multicast");
}

}  // namespace dam::baselines

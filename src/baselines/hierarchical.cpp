#include "baselines/hierarchical.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "util/rng.hpp"

namespace dam::baselines {

core::FrozenRunResult run_hierarchical(const core::FrozenSimConfig& config) {
  const Population layout = lay_out(config, "run_hierarchical");
  const std::size_t population = layout.size();
  const std::size_t group_count =
      std::max<std::size_t>(1, std::min(kHierarchicalGroups, population));
  const double c =
      core::params_for_topic(config, config.publish_topic.value).c;
  const auto build_started = std::chrono::steady_clock::now();
  util::Rng rng(config.seed);
  const core::FrozenStart start = core::draw_frozen_start(config, rng);

  // Random interest-agnostic grouping: shuffle, then deal round-robin.
  std::vector<std::uint32_t> order(population);
  for (std::uint32_t i = 0; i < population; ++i) order[i] = i;
  rng.shuffle(order);
  std::vector<std::uint32_t> group_of(population);
  std::vector<std::vector<std::uint32_t>> members(group_count);
  for (std::size_t i = 0; i < population; ++i) {
    const auto g = static_cast<std::uint32_t>(i % group_count);
    group_of[order[i]] = g;
    members[g].push_back(order[i]);
  }
  const std::size_t m = (population + group_count - 1) / group_count;

  // Tables. Intra view: everyone in the same (small) group is known — the
  // fanout, not the view, limits dissemination, exactly as in [10] where
  // small groups have near-complete local views. Inter view: contacts in
  // ceil(ln(N)+c2) distinct other groups.
  const auto fanout = [c](std::size_t n) {
    return static_cast<std::size_t>(std::ceil(
        std::max(1.0, std::log(static_cast<double>(n)) + c)));
  };
  const std::size_t intra_fanout = fanout(std::max<std::size_t>(m, 2));
  const std::size_t inter_view_size = fanout(group_count);
  std::vector<std::vector<std::uint32_t>> inter_view(population);
  {
    std::vector<std::uint32_t> other_groups;
    for (std::uint32_t p = 0; p < population; ++p) {
      other_groups.clear();
      for (std::uint32_t g = 0; g < group_count; ++g) {
        if (g != group_of[p] && !members[g].empty()) other_groups.push_back(g);
      }
      for (std::uint32_t g : rng.sample(other_groups, inter_view_size)) {
        inter_view[p].push_back(
            members[g][rng.below(members[g].size())]);
      }
    }
  }

  core::FrozenRunResult result;
  result.table_bytes = population * sizeof(std::uint32_t);  // members
  for (const auto& view : inter_view) {
    result.table_bytes += view.size() * sizeof(std::uint32_t);
  }
  run_waves(
      config, layout, start, rng,
      [&](std::uint32_t sender, const Send& send) {
        core::FrozenGroupResult& row = result.groups[layout.topic[sender]];
        // Intra-group leg.
        const auto& local = members[group_of[sender]];
        std::vector<std::uint32_t> peers;
        peers.reserve(local.size());
        for (std::uint32_t p : local) {
          if (p != sender) peers.push_back(p);
        }
        for (std::uint32_t target : rng.sample(peers, intra_fanout)) {
          ++row.intra_sent;
          send(target);
        }
        // Inter-group leg: each inter-view entry with probability 1/m.
        for (std::uint32_t target : inter_view[sender]) {
          if (!rng.bernoulli(1.0 / static_cast<double>(std::max<std::size_t>(
                                 m, 1)))) {
            continue;
          }
          ++row.inter_sent;
          if (send(target)) {
            ++result.groups[layout.topic[target]].inter_received;
          }
        }
      },
      build_started, result);
  return result;
}

}  // namespace dam::baselines

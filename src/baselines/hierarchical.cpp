#include "baselines/hierarchical.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "util/rng.hpp"

namespace dam::baselines {

BaselineResult run_hierarchical(const core::FrozenSimConfig& config,
                                const HierarchicalConfig& hierarchy) {
  const Population layout = lay_out(config, "run_hierarchical");
  const std::size_t population = layout.size();
  const std::size_t group_count =
      std::max<std::size_t>(1, std::min(hierarchy.group_count, population));
  const double psucc =
      core::params_for_topic(config, config.publish_topic.value).psucc;
  util::Rng rng(config.seed);
  const bool stillborn =
      config.failure_mode == core::FrozenFailureMode::kStillborn;
  const double fail_probability = 1.0 - config.alive_fraction;

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

  std::vector<bool> alive(population, true);
  if (stillborn) {
    for (std::size_t i = 0; i < population; ++i) {
      if (rng.bernoulli(fail_probability)) alive[i] = false;
    }
  }

  // Tables. Intra view: everyone in the same (small) group is known — the
  // fanout, not the view, limits dissemination, exactly as in [10] where
  // small groups have near-complete local views. Inter view: contacts in
  // ceil(ln(N)+c2) distinct other groups.
  const auto intra_fanout = static_cast<std::size_t>(
      std::ceil(std::max(1.0, std::log(static_cast<double>(std::max<std::size_t>(
                                  m, 2))) +
                                  hierarchy.c1)));
  const auto inter_view_size = static_cast<std::size_t>(
      std::ceil(std::max(1.0, std::log(static_cast<double>(group_count)) +
                                  hierarchy.c2)));
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

  std::vector<std::uint32_t> candidates;
  for (std::uint32_t i : layout.publishers) {
    if (alive[i]) candidates.push_back(i);
  }
  BaselineResult result;
  std::vector<bool> delivered(population, false);
  if (candidates.empty()) {
    tally(layout, alive, delivered, result);
    return result;
  }

  auto delivery_ok = [&](std::uint32_t target) {
    if (!rng.bernoulli(psucc)) return false;
    if (stillborn) return static_cast<bool>(alive[target]);
    return !rng.bernoulli(fail_probability);
  };

  std::deque<std::uint32_t> frontier;
  const std::uint32_t publisher = candidates[rng.below(candidates.size())];
  delivered[publisher] = true;
  frontier.push_back(publisher);

  while (!frontier.empty()) {
    ++result.rounds;
    std::deque<std::uint32_t> next;
    for (std::uint32_t sender : frontier) {
      // Intra-group leg.
      const auto& local = members[group_of[sender]];
      std::vector<std::uint32_t> peers;
      peers.reserve(local.size());
      for (std::uint32_t p : local) {
        if (p != sender) peers.push_back(p);
      }
      for (std::uint32_t target : rng.sample(peers, intra_fanout)) {
        ++result.messages_sent;
        if (!delivery_ok(target)) continue;
        if (!delivered[target]) {
          delivered[target] = true;
          next.push_back(target);
        }
      }
      // Inter-group leg: each inter-view entry with probability 1/m.
      for (std::uint32_t target : inter_view[sender]) {
        if (!rng.bernoulli(1.0 / static_cast<double>(std::max<std::size_t>(
                               m, 1)))) {
          continue;
        }
        ++result.messages_sent;
        if (!delivery_ok(target)) continue;
        if (!delivered[target]) {
          delivered[target] = true;
          next.push_back(target);
        }
      }
    }
    frontier = std::move(next);
  }

  tally(layout, alive, delivered, result);
  return result;
}

}  // namespace dam::baselines

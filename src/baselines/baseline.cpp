#include "baselines/baseline.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include "core/protocol.hpp"

namespace dam::baselines {

Population lay_out(const core::FrozenSimConfig& config, const char* who) {
  core::validate_frozen_config(config, who);
  if (config.failure_mode == core::FrozenFailureMode::kChurn) {
    throw std::invalid_argument(std::string(who) +
                                ": the baselines have no churn regime");
  }
  Population population;
  for (std::uint32_t topic = 0; topic < config.dag->size(); ++topic) {
    population.topic.insert(population.topic.end(),
                            config.group_sizes[topic], topic);
  }
  return population;
}

void run_waves(const core::FrozenSimConfig& config,
               const Population& population, const core::FrozenStart& start,
               util::Rng& rng,
               const std::function<void(std::uint32_t, const Send&)>& gossip,
               std::chrono::steady_clock::time_point build_started,
               core::FrozenRunResult& result) {
  const auto waves_started = std::chrono::steady_clock::now();
  const double psucc =
      core::params_for_topic(config, config.publish_topic.value).psucc;
  const bool stillborn =
      config.failure_mode == core::FrozenFailureMode::kStillborn;
  const double fail_probability = 1.0 - config.alive_fraction;
  result.groups.resize(config.dag->size());
  const auto alive = [&](std::uint32_t p) {
    const std::uint32_t topic = population.topic[p];
    return static_cast<bool>(start.alive[topic][p - start.first[topic]]);
  };
  // The round each process first received the event, or kUndelivered.
  constexpr auto kUndelivered = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> delivery_round(population.size(), kUndelivered);
  if (start.publisher) {
    std::vector<std::uint32_t> frontier{*start.publisher};
    delivery_round[frontier.front()] = 0;
    std::vector<std::uint32_t> next;
    const Send send = [&](std::uint32_t target) {
      if (!core::protocol::channel_delivers(psucc, rng)) return false;
      if (stillborn ? !alive(target) : rng.bernoulli(fail_probability)) {
        return false;  // failed, or perceived failed
      }
      if (delivery_round[target] != kUndelivered) {
        ++result.groups[population.topic[target]].duplicate_deliveries;
      } else {
        delivery_round[target] = static_cast<std::uint32_t>(result.rounds);
        next.push_back(target);
      }
      return true;
    };
    while (!frontier.empty()) {
      ++result.rounds;
      next.clear();
      for (std::uint32_t sender : frontier) gossip(sender, send);
      frontier.swap(next);
    }
  }

  // Grade: per-topic counters, then frozen_sim's verdicts and totals.
  std::vector<std::uint64_t> deliveries_per_round(
      start.publisher ? result.rounds + 1 : 0, 0);
  for (std::size_t p = 0; p < population.size(); ++p) {
    const std::uint32_t topic = population.topic[p];
    core::FrozenGroupResult& row = result.groups[topic];
    ++row.size;
    if (!alive(p)) continue;
    ++row.alive;
    const std::uint32_t round = delivery_round[p];
    if (round == kUndelivered) continue;
    ++row.delivered;
    if (!row.first_delivery_round || round < *row.first_delivery_round) {
      row.first_delivery_round = round;
    }
    if (!row.last_delivery_round || round > *row.last_delivery_round) {
      row.last_delivery_round = round;
    }
    if (config.dag->includes(topics::TopicId{topic}, config.publish_topic)) {
      ++deliveries_per_round[round];
    }
  }
  core::grade_frozen_run(config, deliveries_per_round,
                         (population.size() + 7) / 8, result);
  const auto finished = std::chrono::steady_clock::now();
  result.table_build_seconds =
      std::chrono::duration<double>(waves_started - build_started).count();
  result.dissemination_seconds =
      std::chrono::duration<double>(finished - waves_started).count();
}

}  // namespace dam::baselines

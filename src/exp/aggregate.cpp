#include "exp/aggregate.hpp"

#include <stdexcept>

namespace dam::exp {

ScenarioPoint make_point(const sim::Scenario& scenario,
                         double alive_fraction) {
  ScenarioPoint point;
  point.alive_fraction = alive_fraction;
  point.groups.resize(scenario.topic_names.size());
  for (std::size_t topic = 0; topic < scenario.topic_names.size(); ++topic) {
    point.groups[topic].topic = scenario.topic_names[topic];
    point.groups[topic].size = scenario.group_sizes[topic];
  }
  return point;
}

void accumulate_run(ScenarioPoint& point, const core::FrozenRunResult& run) {
  if (run.groups.size() != point.groups.size()) {
    throw std::invalid_argument(
        "accumulate_run: run and point disagree on group count");
  }
  point.total_messages.add(static_cast<double>(run.total_messages));
  point.rounds.add(static_cast<double>(run.rounds));
  point.latency_sketch.merge(run.latency_sketch);
  point.expected_deliveries += run.expected_deliveries;
  point.timeline.merge(run.timeline);
  for (std::size_t topic = 0; topic < run.groups.size(); ++topic) {
    const core::FrozenGroupResult& group = run.groups[topic];
    ScenarioGroupStats& stats = point.groups[topic];
    stats.intra_sent.add(static_cast<double>(group.intra_sent));
    stats.inter_sent.add(static_cast<double>(group.inter_sent));
    stats.inter_received.add(static_cast<double>(group.inter_received));
    stats.any_inter_received.add(group.inter_received > 0);
    stats.duplicate_deliveries.add(
        static_cast<double>(group.duplicate_deliveries));
    if (group.alive > 0) {
      stats.delivery_ratio.add(group.delivery_ratio());
      stats.all_alive_delivered.add(group.all_alive_delivered);
    }
    if (group.first_delivery_round) {
      stats.first_delivery_round.add(
          static_cast<double>(*group.first_delivery_round));
    }
    if (group.last_delivery_round) {
      stats.last_delivery_round.add(
          static_cast<double>(*group.last_delivery_round));
    }
  }
}

void accumulate_run(ScenarioPoint& point,
                    const workload::DynamicRunResult& run) {
  if (run.groups.size() != point.groups.size()) {
    throw std::invalid_argument(
        "accumulate_run: run and point disagree on group count");
  }
  const util::Timeline::Counters totals = run.timeline.totals();
  point.total_messages.add(
      static_cast<double>(totals.event_sends + totals.inter_sends));
  point.rounds.add(static_cast<double>(run.rounds));
  point.publications.add(static_cast<double>(run.publications));
  if (run.publications > 0) {
    point.event_reliability.add(run.event_reliability);
    point.delivery_latency.add(run.mean_latency);
    point.max_latency.add(run.max_latency);
  }
  if (run.measured_link) {
    point.rounds_to_link.add(run.rounds_to_link);
    point.linked_fraction.add(run.linked_fraction);
    point.control_at_link.add(run.control_at_link);
  }
  point.latency_sketch.merge(run.latency_sketch);
  point.expected_deliveries += run.expected_deliveries;
  point.timeline.merge(run.timeline);
  point.msg_event_sends.add(static_cast<double>(totals.event_sends));
  point.msg_inter_sends.add(static_cast<double>(totals.inter_sends));
  point.msg_control_sends.add(static_cast<double>(totals.control_sends));
  point.msg_delivers.add(
      static_cast<double>(totals.deliveries + run.parasite_deliveries));
  for (std::size_t topic = 0; topic < run.groups.size(); ++topic) {
    const workload::DynamicGroupResult& group = run.groups[topic];
    ScenarioGroupStats& stats = point.groups[topic];
    stats.intra_sent.add(static_cast<double>(group.intra_sent));
    stats.inter_sent.add(static_cast<double>(group.inter_sent));
    stats.inter_received.add(static_cast<double>(group.inter_received));
    stats.any_inter_received.add(group.inter_received > 0);
    stats.control_sent.add(static_cast<double>(group.control_sent));
    stats.duplicate_deliveries.add(
        static_cast<double>(group.duplicate_deliveries));
    if (group.alive > 0 && group.ratio_samples > 0) {
      stats.delivery_ratio.add(group.delivery_ratio);
    }
    // The correctness proportion only suppresses VACUOUS trues (no alive
    // members or no relevant traffic); a false must always land — the
    // driver also reports false for parasite deliveries to uninterested
    // groups, which contribute no ratio sample.
    if ((group.alive > 0 && group.ratio_samples > 0) ||
        !group.all_alive_delivered) {
      stats.all_alive_delivered.add(group.all_alive_delivered);
    }
  }
}

void merge_point(ScenarioPoint& into, const ScenarioPoint& shard) {
  if (shard.groups.size() != into.groups.size()) {
    throw std::invalid_argument(
        "merge_point: partials disagree on group count");
  }
  into.total_messages.merge(shard.total_messages);
  into.rounds.merge(shard.rounds);
  into.publications.merge(shard.publications);
  into.event_reliability.merge(shard.event_reliability);
  into.delivery_latency.merge(shard.delivery_latency);
  into.max_latency.merge(shard.max_latency);
  into.rounds_to_link.merge(shard.rounds_to_link);
  into.linked_fraction.merge(shard.linked_fraction);
  into.control_at_link.merge(shard.control_at_link);
  into.latency_sketch.merge(shard.latency_sketch);
  into.expected_deliveries += shard.expected_deliveries;
  into.timeline.merge(shard.timeline);
  into.msg_event_sends.merge(shard.msg_event_sends);
  into.msg_inter_sends.merge(shard.msg_inter_sends);
  into.msg_control_sends.merge(shard.msg_control_sends);
  into.msg_delivers.merge(shard.msg_delivers);
  for (std::size_t topic = 0; topic < into.groups.size(); ++topic) {
    ScenarioGroupStats& to = into.groups[topic];
    const ScenarioGroupStats& from = shard.groups[topic];
    to.intra_sent.merge(from.intra_sent);
    to.inter_sent.merge(from.inter_sent);
    to.inter_received.merge(from.inter_received);
    to.delivery_ratio.merge(from.delivery_ratio);
    to.all_alive_delivered.merge(from.all_alive_delivered);
    to.any_inter_received.merge(from.any_inter_received);
    to.duplicate_deliveries.merge(from.duplicate_deliveries);
    to.first_delivery_round.merge(from.first_delivery_round);
    to.last_delivery_round.merge(from.last_delivery_round);
    to.control_sent.merge(from.control_sent);
  }
}

}  // namespace dam::exp

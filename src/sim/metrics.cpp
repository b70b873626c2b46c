#include "sim/metrics.hpp"

#include <algorithm>

namespace dam::sim {

const GroupCounters Metrics::kZero{};

void Metrics::note_intra_send(Round round, topics::TopicId sender) {
  ++counters(sender).intra_sent;
  timeline_.note_event_send(round);
}

void Metrics::note_inter_send(Round round, topics::TopicId sender,
                              std::optional<topics::TopicId> receiver) {
  ++counters(sender).inter_sent;
  if (receiver) ++counters(*receiver).inter_received;
  timeline_.note_inter_send(round);
}

void Metrics::note_control_send(Round round, topics::TopicId sender) {
  ++counters(sender).control_sent;
  timeline_.note_control_send(round);
}

void Metrics::note_publish(net::EventId event, Round now) {
  event_latencies_[event].published_at = now;
  timeline_.note_publish(now);
  note_event_delivery(event, now);
}

void Metrics::note_event_delivery(net::EventId event, Round now) {
  const auto it = event_latencies_.find(event);
  if (it == event_latencies_.end()) return;
  EventLatency& entry = it->second;
  // The publisher's own delivery lands in the publish round; clamp instead
  // of underflowing if a recorder ever replays an older round.
  const Round latency = now >= entry.published_at ? now - entry.published_at : 0;
  ++entry.deliveries;
  entry.latency_sum += latency;
  entry.max_latency = std::max(entry.max_latency, latency);
  latency_sketch_.add(static_cast<double>(latency));
  timeline_.note_delivery(now, static_cast<double>(latency));
}

std::uint64_t Metrics::total_event_messages() const {
  std::uint64_t total = 0;
  for (const GroupCounters& group : per_group_) {
    total += group.intra_sent + group.inter_sent;
  }
  return total;
}

std::uint64_t Metrics::total_control_messages() const {
  std::uint64_t total = 0;
  for (const GroupCounters& group : per_group_) {
    total += group.control_sent;
  }
  return total;
}

void Metrics::reset() {
  per_group_.clear();
  event_latencies_.clear();
  parasite_deliveries_ = 0;
  latency_sketch_ = util::QuantileSketch();
  timeline_ = util::Timeline();
}

}  // namespace dam::sim

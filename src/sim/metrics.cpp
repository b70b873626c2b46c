#include "sim/metrics.hpp"

#include <algorithm>

namespace dam::sim {

const GroupCounters Metrics::kZero{};

void Metrics::begin_event(net::EventId event, Round now) {
  EventLatency& entry = event_latencies_[event];
  entry.published_at = now;
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
  if (deliveries_per_round_.size() <= now) {
    deliveries_per_round_.resize(now + 1, 0);
  }
  ++deliveries_per_round_[now];
}

void Metrics::note_control_send(Round round) {
  timeline_.note_control_send(round);
  if (control_per_round_.size() <= round) {
    control_per_round_.resize(round + 1, 0);
  }
  ++control_per_round_[round];
}

void Metrics::note_event_send(Round round, bool intergroup) {
  if (intergroup) {
    timeline_.note_inter_send(round);
  } else {
    timeline_.note_event_send(round);
  }
}

void Metrics::note_publish(Round round) { timeline_.note_publish(round); }

void Metrics::note_infection(Round round) {
  if (infections_per_round_.size() <= round) {
    infections_per_round_.resize(round + 1, 0);
  }
  ++infections_per_round_[round];
}

std::uint64_t Metrics::total_event_messages() const {
  std::uint64_t total = 0;
  for (const GroupCounters& counters : per_group_) {
    total += counters.intra_sent + counters.inter_sent;
  }
  return total;
}

std::uint64_t Metrics::total_control_messages() const {
  std::uint64_t total = 0;
  for (const GroupCounters& counters : per_group_) {
    total += counters.control_sent;
  }
  return total;
}

std::uint64_t Metrics::total_deliveries() const {
  std::uint64_t total = 0;
  for (const GroupCounters& counters : per_group_) {
    total += counters.delivered;
  }
  return total;
}

void Metrics::reset() {
  per_group_.clear();
  event_latencies_.clear();
  parasite_deliveries_ = 0;
  infections_per_round_.clear();
  deliveries_per_round_.clear();
  control_per_round_.clear();
  latency_sketch_ = util::QuantileSketch();
  timeline_ = util::Timeline();
}

}  // namespace dam::sim

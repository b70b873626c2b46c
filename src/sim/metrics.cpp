#include "sim/metrics.hpp"

#include <algorithm>

namespace dam::sim {

const GroupCounters Metrics::kZero{};

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

}  // namespace dam::sim

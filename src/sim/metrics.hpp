// Simulation metrics.
//
// Counts exactly what the paper's figures report: events sent within each
// group (Fig. 8), intergroup events crossing each boundary (Fig. 9), and
// deliveries used to compute reliability (Figs. 10–11). Also tracks the
// invariant counter the test suite asserts on (parasite deliveries).
//
// One call per happening: each send, delivery and publish updates the
// per-group run totals (Figs. 8–9) and the round's row of the run
// timeline, which is the one store every other counter derives from.
// Every stream engine — DamSystem and the steady rivals — counts through
// one Metrics, so the protocol-vs-rival tables compare like for like.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/message.hpp"
#include "sim/clock.hpp"
#include "topics/topic.hpp"
#include "util/quantiles.hpp"
#include "util/timeline.hpp"

namespace dam::sim {

struct GroupCounters {
  std::uint64_t intra_sent = 0;     ///< gossip events sent within the group
  std::uint64_t inter_sent = 0;     ///< events sent from this group upward
  std::uint64_t inter_received = 0; ///< events received from the group below
  std::uint64_t control_sent = 0;   ///< membership/bootstrap/maintenance msgs
};

class Metrics {
 public:
  /// Run totals of `topic`'s group, indexed by TopicId.
  [[nodiscard]] const GroupCounters& group(topics::TopicId topic) const {
    return topic.value < per_group_.size() ? per_group_[topic.value] : kZero;
  }

  // The three send notes run once per send, so they are inline. Each
  // counts `copies` messages: one per target of a fan-out.

  /// Event messages sent within `sender`'s group.
  void note_intra_send(Round round, topics::TopicId sender,
                       std::uint64_t copies = 1) {
    counters(sender).intra_sent += copies;
    timeline_.note_event_send(round, copies);
  }

  /// Event messages sent from `sender`'s group upward; `receiver` is the
  /// group charged with the boundary crossings (none when no supergroup
  /// has members).
  void note_inter_send(Round round, topics::TopicId sender,
                       std::optional<topics::TopicId> receiver,
                       std::uint64_t copies = 1) {
    counters(sender).inter_sent += copies;
    if (receiver) counters(*receiver).inter_received += copies;
    timeline_.note_inter_send(round, copies);
  }

  /// Membership/bootstrap/maintenance/recovery messages.
  void note_control_send(Round round, topics::TopicId sender,
                         std::uint64_t copies = 1) {
    counters(sender).control_sent += copies;
    timeline_.note_control_send(round, copies);
  }

  /// A publication: records its publish round and the publisher's own
  /// (synchronous, latency-0) first delivery.
  void note_publish(net::EventId event, Round now);

  /// Per-publication latency tracking (the dynamic lane's measurand).
  struct EventLatency {
    Round published_at = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t latency_sum = 0;  ///< sum of (delivery round - publish round)
    Round max_latency = 0;
  };

  /// One interested first-time delivery of `event`, folded into the
  /// event's latency aggregate, the latency sketch and the timeline.
  /// Deliveries of events never published here (e.g. pre-registered
  /// history replays) are ignored.
  void note_event_delivery(net::EventId event, Round now);

  /// A first-time delivery to a process not interested in the event.
  void count_parasite_delivery() noexcept { ++parasite_deliveries_; }
  [[nodiscard]] std::uint64_t parasite_deliveries() const noexcept {
    return parasite_deliveries_;
  }

  /// Sustained-service GC: drops one event's latency aggregate once the
  /// workload driver has harvested it at the publication's deadline, so
  /// long-horizon runs hold only in-flight publications. The streaming
  /// sketch and the timeline keep their folded samples.
  void retire_event(net::EventId event) { event_latencies_.erase(event); }

  [[nodiscard]] const std::unordered_map<net::EventId, EventLatency>&
  event_latencies() const noexcept {
    return event_latencies_;
  }

  /// Per-delivery latency distribution: every note_event_delivery also
  /// folds its latency (in rounds) into a constant-memory streaming
  /// sketch, so percentiles and reliability-vs-deadline curves survive
  /// runs whose per-event maps are too coarse. Latencies are small
  /// integers, so the sketch stays exact (see util/quantiles.hpp).
  [[nodiscard]] const util::QuantileSketch& latency_sketch() const noexcept {
    return latency_sketch_;
  }

  /// Run timeline. Deliveries, publishes and sends are fed by the notes
  /// above, and its totals() are the run's message totals; churn events,
  /// queue high-water, and bookkeeping gauges are fed by the workload
  /// driver (which owns the round loop and the window-boundary sampling
  /// cadence).
  [[nodiscard]] const util::Timeline& timeline() const noexcept {
    return timeline_;
  }
  [[nodiscard]] util::Timeline& timeline() noexcept { return timeline_; }

 private:
  GroupCounters& counters(topics::TopicId topic) {
    if (topic.value >= per_group_.size()) per_group_.resize(topic.value + 1);
    return per_group_[topic.value];
  }

  std::vector<GroupCounters> per_group_;  // indexed by TopicId
  std::unordered_map<net::EventId, EventLatency> event_latencies_;
  std::uint64_t parasite_deliveries_ = 0;
  util::QuantileSketch latency_sketch_;
  util::Timeline timeline_;
  static const GroupCounters kZero;
};

}  // namespace dam::sim

#include "sim/metrics.hpp"

#include <gtest/gtest.h>

namespace dam::sim {
namespace {

using topics::TopicId;

TEST(Metrics, GroupCountersStartAtZero) {
  const Metrics metrics;
  const auto& counters = metrics.group(TopicId{3});
  EXPECT_EQ(counters.intra_sent, 0u);
  EXPECT_EQ(counters.inter_sent, 0u);
  EXPECT_EQ(counters.control_sent, 0u);
}

TEST(Metrics, CountsPerGroupIndependently) {
  Metrics metrics;
  for (int i = 0; i < 5; ++i) metrics.note_intra_send(0, TopicId{1});
  for (int i = 0; i < 7; ++i) metrics.note_intra_send(0, TopicId{2});
  metrics.note_inter_send(0, TopicId{1}, TopicId{0});
  metrics.note_inter_send(0, TopicId{1}, std::nullopt);
  EXPECT_EQ(metrics.group(TopicId{1}).intra_sent, 5u);
  EXPECT_EQ(metrics.group(TopicId{2}).intra_sent, 7u);
  EXPECT_EQ(metrics.group(TopicId{1}).inter_sent, 2u);
  EXPECT_EQ(metrics.group(TopicId{2}).inter_sent, 0u);
  EXPECT_EQ(metrics.group(TopicId{0}).inter_received, 1u);
}

TEST(Metrics, TotalsAggregateAcrossGroups) {
  Metrics metrics;
  for (int i = 0; i < 10; ++i) metrics.note_intra_send(0, TopicId{1});
  metrics.note_inter_send(0, TopicId{1}, TopicId{0});
  for (int i = 0; i < 20; ++i) metrics.note_intra_send(0, TopicId{2});
  for (int i = 0; i < 4; ++i) metrics.note_control_send(0, TopicId{1});
  EXPECT_EQ(metrics.total_event_messages(), 31u);
  EXPECT_EQ(metrics.total_control_messages(), 4u);
}

TEST(Metrics, EachSendFillsOneTimelineRow) {
  Metrics metrics;
  metrics.note_intra_send(1, TopicId{1});
  metrics.note_inter_send(1, TopicId{1}, TopicId{0});
  metrics.note_control_send(3, TopicId{2});
  const auto& rows = metrics.timeline().rounds();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[1].event_sends, 1u);
  EXPECT_EQ(rows[1].inter_sends, 1u);
  EXPECT_EQ(rows[3].control_sends, 1u);
  const util::Timeline::Counters totals = metrics.timeline().totals();
  EXPECT_EQ(totals.event_sends + totals.inter_sends,
            metrics.total_event_messages());
  EXPECT_EQ(totals.control_sends, metrics.total_control_messages());
}

TEST(Metrics, ParasiteCounter) {
  Metrics metrics;
  EXPECT_EQ(metrics.parasite_deliveries(), 0u);
  metrics.count_parasite_delivery();
  metrics.count_parasite_delivery();
  EXPECT_EQ(metrics.parasite_deliveries(), 2u);
  EXPECT_TRUE(metrics.timeline().rounds().empty());
}

TEST(Metrics, EventLatencyAggregatesFirstDeliveries) {
  Metrics metrics;
  const net::EventId event{topics::ProcessId{3}, 7};
  metrics.note_publish(event, /*now=*/10);  // publisher's own, latency 0
  metrics.note_event_delivery(event, 12);
  metrics.note_event_delivery(event, 15);
  const auto& latencies = metrics.event_latencies();
  ASSERT_EQ(latencies.size(), 1u);
  const Metrics::EventLatency& entry = latencies.at(event);
  EXPECT_EQ(entry.published_at, 10u);
  EXPECT_EQ(entry.deliveries, 3u);
  EXPECT_EQ(entry.latency_sum, 0u + 2u + 5u);
  EXPECT_EQ(entry.max_latency, 5u);
}

TEST(Metrics, DeliveriesOfUnknownEventsAreIgnored) {
  Metrics metrics;
  metrics.note_event_delivery(net::EventId{topics::ProcessId{1}, 1}, 4);
  EXPECT_TRUE(metrics.event_latencies().empty());
}

TEST(Metrics, EventsTrackIndependently) {
  Metrics metrics;
  const net::EventId a{topics::ProcessId{1}, 0};
  const net::EventId b{topics::ProcessId{1}, 1};
  metrics.note_publish(a, 0);
  metrics.note_publish(b, 5);
  metrics.note_event_delivery(a, 4);
  metrics.note_event_delivery(b, 6);
  EXPECT_EQ(metrics.event_latencies().at(a).latency_sum, 4u);
  EXPECT_EQ(metrics.event_latencies().at(b).latency_sum, 1u);
}

TEST(Metrics, DeliveriesFeedTheLatencySketchAndTimeline) {
  Metrics metrics;
  const net::EventId event{topics::ProcessId{3}, 7};
  metrics.note_publish(event, /*now=*/10);  // latency 0
  metrics.note_event_delivery(event, 12);   // latency 2
  metrics.note_event_delivery(event, 12);   // latency 2
  EXPECT_EQ(metrics.latency_sketch().count(), 3u);
  EXPECT_EQ(metrics.latency_sketch().min(), 0.0);
  EXPECT_EQ(metrics.latency_sketch().max(), 2.0);
  EXPECT_EQ(metrics.latency_sketch().quantile(1.0), 2.0);
  const auto per_round =
      metrics.timeline().per_round(&util::Timeline::Counters::deliveries);
  ASSERT_EQ(per_round.size(), 13u);
  EXPECT_EQ(per_round[10], 1u);
  EXPECT_EQ(per_round[11], 0u);
  EXPECT_EQ(per_round[12], 2u);
  EXPECT_EQ(metrics.timeline().rounds()[10].publishes, 1u);
}

TEST(Metrics, UnknownEventDeliveriesStayOutOfTheSketch) {
  // Mirrors DeliveriesOfUnknownEventsAreIgnored: a delivery of an event
  // never published here must not poison the latency distribution either.
  Metrics metrics;
  metrics.note_event_delivery(net::EventId{topics::ProcessId{1}, 1}, 4);
  EXPECT_TRUE(metrics.latency_sketch().empty());
  EXPECT_TRUE(metrics.timeline().rounds().empty());
}

TEST(Metrics, ResetClearsEverything) {
  Metrics metrics;
  metrics.note_intra_send(0, TopicId{1});
  metrics.count_parasite_delivery();
  const net::EventId event{topics::ProcessId{1}, 0};
  metrics.note_publish(event, 1);
  metrics.note_event_delivery(event, 3);
  metrics.note_control_send(2, TopicId{1});
  metrics.reset();
  EXPECT_EQ(metrics.total_event_messages(), 0u);
  EXPECT_EQ(metrics.total_control_messages(), 0u);
  EXPECT_EQ(metrics.parasite_deliveries(), 0u);
  EXPECT_TRUE(metrics.event_latencies().empty());
  EXPECT_TRUE(metrics.latency_sketch().empty());
  EXPECT_TRUE(metrics.timeline().empty());
  EXPECT_TRUE(metrics.timeline().rounds().empty());
}

}  // namespace
}  // namespace dam::sim

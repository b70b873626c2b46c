// util::Timeline — per-round counter rows plus the fixed-window flight
// recorder: window bucketing, sparse (empty) windows, window counters and
// per-round series derived from the rows, deterministic merge semantics
// (rows sum, gauges/peaks max, sketches merge in window order), and the
// peak_bookkeeping_bytes measurand bench_diff gates.
#include "util/timeline.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace dam::util {
namespace {

TEST(Timeline, StartsEmpty) {
  const Timeline timeline;
  EXPECT_TRUE(timeline.empty());
  EXPECT_EQ(timeline.windows().size(), 0u);
  EXPECT_EQ(timeline.rounds().size(), 0u);
  EXPECT_EQ(timeline.window_rounds(), Timeline::kWindowRounds);
  EXPECT_EQ(timeline.peak_bookkeeping_bytes(), 0u);
}

TEST(Timeline, BucketsRoundsOnWindowBoundaries) {
  Timeline timeline;
  // Rounds 0..7 land in window 0; round 8 opens window 1.
  EXPECT_EQ(timeline.window_index(0), 0u);
  EXPECT_EQ(timeline.window_index(7), 0u);
  EXPECT_EQ(timeline.window_index(8), 1u);
  EXPECT_EQ(timeline.window_index(15), 1u);
  EXPECT_EQ(timeline.window_index(16), 2u);

  timeline.note_delivery(0, 0.0);
  timeline.note_delivery(7, 7.0);
  timeline.note_delivery(8, 8.0);
  ASSERT_EQ(timeline.windows().size(), 2u);
  EXPECT_EQ(timeline.window_counters(0).deliveries, 2u);
  EXPECT_EQ(timeline.window_counters(1).deliveries, 1u);
  EXPECT_EQ(timeline.window_counters(2).deliveries, 0u);  // past the end
  EXPECT_EQ(timeline.windows()[0].latency.count(), 2u);
  EXPECT_EQ(timeline.windows()[0].latency.max(), 7.0);
  EXPECT_EQ(timeline.windows()[1].latency.min(), 8.0);
}

TEST(Timeline, SparseRoundsLeaveEmptyWindowsBetween) {
  Timeline timeline;
  timeline.note_publish(0);
  timeline.note_delivery(45, 45.0);  // window 5; windows 1..4 stay empty
  ASSERT_EQ(timeline.windows().size(), 6u);
  for (std::size_t w = 1; w <= 4; ++w) {
    SCOPED_TRACE(w);
    EXPECT_EQ(timeline.window_counters(w).deliveries, 0u);
    EXPECT_EQ(timeline.window_counters(w).publishes, 0u);
    EXPECT_TRUE(timeline.windows()[w].latency.empty());
  }
  EXPECT_EQ(timeline.window_counters(0).publishes, 1u);
  EXPECT_EQ(timeline.window_counters(5).deliveries, 1u);
}

TEST(Timeline, CounterNotesOpenTheirWindow) {
  // A round with only a send still belongs to the window grid.
  Timeline timeline;
  timeline.note_control_send(17);
  EXPECT_EQ(timeline.rounds().size(), 18u);
  EXPECT_EQ(timeline.windows().size(), 3u);
  EXPECT_EQ(timeline.window_counters(2).control_sends, 1u);
}

TEST(Timeline, PerRoundSeriesAreTrimmedAfterTheLastNonzeroRound) {
  Timeline timeline;
  timeline.note_delivery(1, 1.0, 3);
  timeline.note_delivery(3, 3.0);
  timeline.note_control_send(6);
  const std::vector<std::uint64_t> deliveries =
      timeline.per_round(&Timeline::Counters::deliveries);
  EXPECT_EQ(deliveries, (std::vector<std::uint64_t>{0, 3, 0, 1}));
  EXPECT_EQ(timeline.per_round(&Timeline::Counters::control_sends),
            (std::vector<std::uint64_t>{0, 0, 0, 0, 0, 0, 1}));
  EXPECT_TRUE(timeline.per_round(&Timeline::Counters::joins).empty());
}

TEST(Timeline, TotalsSumEveryRow) {
  Timeline timeline;
  timeline.note_publish(0);
  timeline.note_delivery(0, 0.0);
  timeline.note_delivery(13, 13.0, 4);
  timeline.note_event_send(1);
  timeline.note_inter_send(3);
  const Timeline::Counters totals = timeline.totals();
  EXPECT_EQ(totals.publishes, 1u);
  EXPECT_EQ(totals.deliveries, 5u);
  EXPECT_EQ(totals.event_sends, 1u);
  EXPECT_EQ(totals.inter_sends, 1u);
  std::uint64_t windowed = 0;
  for (std::size_t w = 0; w < timeline.windows().size(); ++w) {
    windowed += timeline.window_counters(w).deliveries;
  }
  EXPECT_EQ(windowed, totals.deliveries);
}

TEST(Timeline, WeightedDeliveriesCountTheWeight) {
  Timeline timeline;
  timeline.note_delivery(2, 2.0, 40);
  timeline.note_delivery(2, 2.0, 0);  // zero weight: a no-op
  timeline.note_delivery(9, 9.0, 0);  // ... that opens no row or window
  EXPECT_EQ(timeline.rounds().size(), 3u);
  EXPECT_EQ(timeline.windows().size(), 1u);
  EXPECT_EQ(timeline.window_counters(0).deliveries, 40u);
  EXPECT_EQ(timeline.windows()[0].latency.count(), 40u);
}

TEST(Timeline, CountersRecordPerClass) {
  Timeline timeline;
  timeline.note_event_send(1);
  timeline.note_inter_send(1);
  timeline.note_inter_send(1);
  timeline.note_control_send(2);
  timeline.note_join(3);
  timeline.note_leave(4);
  timeline.note_crash(5);
  timeline.note_recover(6);
  const Timeline::Counters window = timeline.window_counters(0);
  EXPECT_EQ(window.event_sends, 1u);
  EXPECT_EQ(window.inter_sends, 2u);
  EXPECT_EQ(window.control_sends, 1u);
  EXPECT_EQ(window.joins, 1u);
  EXPECT_EQ(window.leaves, 1u);
  EXPECT_EQ(window.crashes, 1u);
  EXPECT_EQ(window.recovers, 1u);
}

TEST(Timeline, GaugesAndQueuePeakKeepTheMaxWithinAWindow) {
  Timeline timeline;
  timeline.sample_gauges(0, 100, 10, 1);
  timeline.sample_gauges(7, 50, 200, 0);  // same window, partial maxima
  timeline.note_queue_peak(3, 64);
  timeline.note_queue_peak(5, 32);
  const Timeline::Window& window = timeline.windows()[0];
  EXPECT_EQ(window.seen_bytes, 100u);
  EXPECT_EQ(window.delivered_bytes, 200u);
  EXPECT_EQ(window.request_bytes, 1u);
  EXPECT_EQ(window.queue_peak_bytes, 64u);
  EXPECT_EQ(window.bookkeeping_bytes(), 301u);
  EXPECT_EQ(timeline.peak_bookkeeping_bytes(), 301u);
}

TEST(Timeline, PeakBookkeepingIsTheWorstWindow) {
  Timeline timeline;
  timeline.sample_gauges(0, 10, 10, 0);     // window 0: 20
  timeline.sample_gauges(8, 100, 50, 25);   // window 1: 175
  timeline.sample_gauges(16, 30, 0, 0);     // window 2: 30
  EXPECT_EQ(timeline.peak_bookkeeping_bytes(), 175u);
}

TEST(Timeline, MergeSumsCountersMaxesGaugesAndMergesSketches) {
  Timeline a;
  a.note_delivery(1, 1.0);
  a.note_control_send(1);
  a.sample_gauges(7, 100, 10, 0);
  a.note_queue_peak(2, 16);

  Timeline b;
  b.note_delivery(1, 3.0);
  b.note_delivery(9, 9.0);  // b is longer: merge must extend a
  b.sample_gauges(7, 40, 50, 5);
  b.note_queue_peak(2, 48);

  a.merge(b);
  ASSERT_EQ(a.windows().size(), 2u);
  ASSERT_EQ(a.rounds().size(), 10u);
  EXPECT_EQ(a.rounds()[1].deliveries, 2u);
  EXPECT_EQ(a.window_counters(0).deliveries, 2u);
  EXPECT_EQ(a.window_counters(0).control_sends, 1u);
  EXPECT_EQ(a.windows()[0].seen_bytes, 100u);       // max(100, 40)
  EXPECT_EQ(a.windows()[0].delivered_bytes, 50u);   // max(10, 50)
  EXPECT_EQ(a.windows()[0].request_bytes, 5u);      // max(0, 5)
  EXPECT_EQ(a.windows()[0].queue_peak_bytes, 48u);  // max(16, 48)
  EXPECT_EQ(a.windows()[0].latency.count(), 2u);
  EXPECT_EQ(a.windows()[0].latency.min(), 1.0);
  EXPECT_EQ(a.windows()[0].latency.max(), 3.0);
  EXPECT_EQ(a.window_counters(1).deliveries, 1u);
  EXPECT_EQ(a.windows()[1].latency.count(), 1u);
}

TEST(Timeline, MergeIsDeterministicForAFixedOrder) {
  const auto build = [](double first, double second) {
    Timeline timeline;
    timeline.note_delivery(0, first);
    timeline.note_delivery(3, second);
    return timeline;
  };
  Timeline left = build(1.0, 2.0);
  left.merge(build(3.0, 4.0));
  Timeline left_again = build(1.0, 2.0);
  left_again.merge(build(3.0, 4.0));
  ASSERT_EQ(left.windows().size(), left_again.windows().size());
  // Same merge order → bitwise-identical sketches (the determinism
  // contract the runner's fixed shard order relies on).
  EXPECT_TRUE(left.windows()[0].latency.centroids() ==
              left_again.windows()[0].latency.centroids());
}

TEST(Timeline, MergeIntoEmptyCopiesTheOther) {
  Timeline a;
  Timeline b;
  b.note_delivery(12, 12.0);
  b.sample_gauges(12, 7, 7, 7);
  a.merge(b);
  ASSERT_EQ(a.windows().size(), 2u);
  EXPECT_EQ(a.window_counters(1).deliveries, 1u);
  EXPECT_EQ(a.peak_bookkeeping_bytes(), 21u);
}

}  // namespace
}  // namespace dam::util

#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/system.hpp"
#include "topics/dag.hpp"

namespace dam::sim {
namespace {

TraceEntry entry(Round round, TraceKind kind) {
  TraceEntry e;
  e.round = round;
  e.kind = kind;
  return e;
}

TEST(TraceRecorder, RecordsAndCounts) {
  TraceRecorder recorder(8);
  recorder.record(entry(0, TraceKind::kPublish));
  recorder.record(entry(1, TraceKind::kEventSend));
  recorder.record(entry(1, TraceKind::kEventSend));
  recorder.record(entry(2, TraceKind::kDeliver));
  EXPECT_EQ(recorder.entries().size(), 4u);
  EXPECT_EQ(recorder.total(TraceKind::kPublish), 1u);
  EXPECT_EQ(recorder.total(TraceKind::kEventSend), 2u);
  EXPECT_EQ(recorder.total(TraceKind::kDeliver), 1u);
  EXPECT_EQ(recorder.total(TraceKind::kControlSend), 0u);
  EXPECT_EQ(recorder.total_recorded(), 4u);
}

TEST(TraceRecorder, RingBufferEvictsOldestButTotalsStayExact) {
  TraceRecorder recorder(3);
  for (Round r = 0; r < 10; ++r) {
    recorder.record(entry(r, TraceKind::kEventSend));
  }
  ASSERT_EQ(recorder.entries().size(), 3u);
  EXPECT_EQ(recorder.entries().front().round, 7u);
  EXPECT_EQ(recorder.entries().back().round, 9u);
  EXPECT_EQ(recorder.total(TraceKind::kEventSend), 10u);
}

TEST(TraceRecorder, ZeroCapacityCountsOnly) {
  TraceRecorder recorder(0);
  recorder.record(entry(0, TraceKind::kDeliver));
  EXPECT_TRUE(recorder.entries().empty());
  EXPECT_EQ(recorder.total(TraceKind::kDeliver), 1u);
}

TEST(TraceRecorder, CsvOutput) {
  TraceRecorder recorder(4);
  TraceEntry e;
  e.round = 3;
  e.kind = TraceKind::kDeliver;
  e.from = topics::ProcessId{1};
  e.to = topics::ProcessId{2};
  e.topic = topics::TopicId{4};
  e.publisher = topics::ProcessId{1};
  e.sequence = 9;
  recorder.record(e);
  std::ostringstream out;
  recorder.to_csv(out);
  EXPECT_EQ(out.str(),
            "round,kind,from,to,topic,publisher,sequence\n"
            "3,deliver,1,2,4,1,9\n");
}

TEST(TraceRecorder, ClearResets) {
  TraceRecorder recorder(4);
  recorder.record(entry(0, TraceKind::kPublish));
  recorder.clear();
  EXPECT_TRUE(recorder.entries().empty());
  EXPECT_EQ(recorder.total(TraceKind::kPublish), 0u);
  EXPECT_EQ(recorder.total_recorded(), 0u);
}

TEST(TraceKindNames, AllNamed) {
  EXPECT_EQ(to_string(TraceKind::kPublish), "publish");
  EXPECT_EQ(to_string(TraceKind::kEventSend), "event_send");
  EXPECT_EQ(to_string(TraceKind::kInterSend), "inter_send");
  EXPECT_EQ(to_string(TraceKind::kControlSend), "control_send");
  EXPECT_EQ(to_string(TraceKind::kDeliver), "deliver");
}

TEST(SystemTracing, CapturesFullPublicationLifecycle) {
  topics::TopicDag hierarchy;
  const auto levels = topics::make_linear_hierarchy(hierarchy, 1);
  core::DamSystem::Config config;
  config.seed = 4;
  config.auto_wire_super_tables = true;
  config.node.params.psucc = 1.0;
  core::DamSystem system(hierarchy, config);
  TraceRecorder recorder(1 << 14);
  system.set_trace_recorder(&recorder);

  system.spawn_group(levels[0], 6);
  const auto leaves = system.spawn_group(levels[1], 12);
  system.run_rounds(3);
  const auto event = system.publish(leaves[0]);
  system.run_rounds(20);

  EXPECT_EQ(recorder.total(TraceKind::kPublish), 1u);
  EXPECT_GT(recorder.total(TraceKind::kEventSend), 0u);
  EXPECT_GT(recorder.total(TraceKind::kControlSend), 0u);
  // Deliveries in the trace match the system's bookkeeping.
  EXPECT_EQ(recorder.total(TraceKind::kDeliver),
            system.delivered_set(event).size());
  // Trace totals agree with the metrics counters.
  const util::Timeline::Counters totals = system.metrics().timeline().totals();
  EXPECT_EQ(recorder.total(TraceKind::kEventSend), totals.event_sends);
  EXPECT_EQ(recorder.total(TraceKind::kInterSend), totals.inter_sends);
  // The publish entry carries the event identity.
  bool found_publish = false;
  for (const TraceEntry& traced : recorder.entries()) {
    if (traced.kind == TraceKind::kPublish) {
      found_publish = true;
      EXPECT_EQ(traced.publisher, event.publisher);
      EXPECT_EQ(traced.sequence, event.sequence);
    }
  }
  EXPECT_TRUE(found_publish);
}

TEST(SystemTracing, DetachStopsRecording) {
  topics::TopicDag hierarchy;
  const auto levels = topics::make_linear_hierarchy(hierarchy, 0);
  core::DamSystem::Config config;
  config.seed = 5;
  core::DamSystem system(hierarchy, config);
  TraceRecorder recorder(64);
  system.set_trace_recorder(&recorder);
  const auto members = system.spawn_group(levels[0], 5);
  system.run_rounds(2);
  const auto before = recorder.total_recorded();
  EXPECT_GT(before, 0u);
  system.set_trace_recorder(nullptr);
  system.publish(members[0]);
  system.run_rounds(5);
  EXPECT_EQ(recorder.total_recorded(), before);
}

}  // namespace
}  // namespace dam::sim

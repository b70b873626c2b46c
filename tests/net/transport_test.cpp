#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <span>
#include <stdexcept>
#include <vector>

#include "owned_message.hpp"

// Counts the operator new calls of this binary, so a test can tell
// whether a stretch of transport work allocated.
namespace {

std::size_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace dam::net {
namespace {

using dam::testing::OwnedMessage;

/// `count` processes; the `failed` ones are down from round 0 for good.
sim::ChurnFailures stillborn(std::size_t count,
                             std::initializer_list<std::uint32_t> failed) {
  sim::ChurnFailures model(count);
  for (const std::uint32_t p : failed) {
    model.add_downtime(ProcessId{p}, {0, sim::ChurnFailures::kNever});
  }
  return model;
}

Message make_msg(std::uint32_t from, std::uint32_t to) {
  Message msg;
  msg.kind = MsgKind::kEvent;
  msg.from = ProcessId{from};
  msg.to = ProcessId{to};
  return msg;
}

TEST(Transport, DeliversAfterDelay) {
  Transport transport(1.0, util::Rng(1), nullptr);
  transport.send(make_msg(0, 1), /*now=*/0);
  int delivered = 0;
  transport.deliver_round(0, [&](const Message&) { ++delivered; });
  EXPECT_EQ(delivered, 0);  // not due yet
  transport.deliver_round(1, [&](const Message&) { ++delivered; });
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(transport.idle());
}

TEST(Transport, PreservesSendOrderWithinRound) {
  Transport transport(1.0, util::Rng(1), nullptr);
  for (std::uint32_t i = 0; i < 5; ++i) transport.send(make_msg(0, i), 0);
  std::vector<std::uint32_t> order;
  transport.deliver_round(1, [&](const Message& m) { order.push_back(m.to.value); });
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(Transport, LossRateMatchesPsucc) {
  Transport transport(0.85, util::Rng(7), nullptr);
  constexpr int kMessages = 20000;
  for (int i = 0; i < kMessages; ++i) transport.send(make_msg(0, 1), 0);
  int delivered = 0;
  transport.deliver_round(1, [&](const Message&) { ++delivered; });
  EXPECT_NEAR(static_cast<double>(delivered) / kMessages, 0.85, 0.01);
  EXPECT_EQ(transport.stats().sent, static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(transport.stats().delivered + transport.stats().lost_channel,
            static_cast<std::uint64_t>(kMessages));
}

TEST(Transport, FailureModelBlocksDelivery) {
  const sim::ChurnFailures failures = stillborn(3, {1});
  Transport transport(1.0, util::Rng(1), &failures);
  transport.send(make_msg(0, 1), 0);  // to failed process
  transport.send(make_msg(0, 2), 0);  // to alive process
  std::vector<std::uint32_t> received;
  transport.deliver_round(1,
                          [&](const Message& m) { received.push_back(m.to.value); });
  EXPECT_EQ(received, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(transport.stats().lost_failure, 1u);
}

TEST(Transport, MessagesSentDuringDeliveryLandLater) {
  Transport transport(1.0, util::Rng(1), nullptr);
  transport.send(make_msg(0, 1), 0);
  int round1 = 0;
  transport.deliver_round(1, [&](const Message&) {
    ++round1;
    transport.send(make_msg(1, 2), 1);  // reply during delivery
  });
  EXPECT_EQ(round1, 1);
  int round2 = 0;
  transport.deliver_round(2, [&](const Message&) { ++round2; });
  EXPECT_EQ(round2, 1);
}

TEST(Transport, SendAfterASkippedRoundThrows) {
  // Rounds 1 and 3 share a slab; with round 1 never delivered, a send for
  // round 3 would strand its messages.
  Transport transport(1.0, util::Rng(1), nullptr);
  transport.send(make_msg(0, 1), 0);
  EXPECT_THROW(transport.send(make_msg(0, 1), 2), std::logic_error);
  int delivered = 0;
  transport.deliver_round(1, [&](const Message&) { ++delivered; });
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(transport.idle());
  transport.send(make_msg(0, 1), 2);  // delivered, the slab takes round 3
  EXPECT_EQ(transport.queued_records(), 1u);
}

TEST(Transport, BytesAccounted) {
  Transport transport(1.0, util::Rng(1), nullptr);
  const Message msg = make_msg(0, 1);
  transport.send(msg, 0);
  EXPECT_EQ(transport.stats().bytes_sent, encoded_size(msg));
}

TEST(Transport, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    Transport transport(0.5, util::Rng(42), nullptr);
    for (int i = 0; i < 100; ++i) transport.send(make_msg(0, 1), 0);
    int delivered = 0;
    transport.deliver_round(1, [&](const Message&) { ++delivered; });
    return delivered;
  };
  EXPECT_EQ(run(), run());
}

// --- slab/interning representation ----------------------------------------

OwnedMessage make_event(std::uint32_t publisher, std::uint32_t seq,
                        std::vector<std::uint8_t> payload) {
  OwnedMessage msg;
  msg.kind = MsgKind::kEvent;
  msg.from = ProcessId{publisher};
  msg.topic = TopicId{3};
  msg.event = EventId{ProcessId{publisher}, seq};
  msg.payload = std::move(payload);
  return msg;
}

/// Sends `event` to targets 0 .. copies-1 (at most 1,000) the way a
/// disseminating node does: one fan-out, a run of `copies` messages.
std::uint32_t fan_out(Transport& transport, const OwnedMessage& event,
                      std::uint32_t copies, sim::Round now) {
  static const std::vector<ProcessId> kTargets = [] {
    std::vector<ProcessId> targets(1000);
    for (std::uint32_t to = 0; to < targets.size(); ++to) {
      targets[to] = ProcessId{to};
    }
    return targets;
  }();
  return transport.send(event.view(), std::span(kTargets).first(copies), now);
}

TEST(Transport, FanOutCopiesShareOneInternedBody) {
  Transport transport(1.0, util::Rng(1), nullptr);
  const std::vector<std::uint8_t> payload(1000, 0xAB);
  const OwnedMessage event = make_event(7, 1, payload);
  Message copy = event.view();
  // The first send interns the body and returns its handle; every copy
  // that carries the handle gets it back and shares the entry.
  const std::uint32_t body = transport.send(copy, 0);
  ASSERT_NE(body, kNoBody);
  copy.body = body;
  for (std::uint32_t to = 1; to < 50; ++to) {
    copy.to = ProcessId{to};
    EXPECT_EQ(transport.send(copy, 0), body);
  }
  // 50 queued copies, ONE body: the payload is stored once, and the queue
  // footprint is records + one body, far below 50 full Messages.
  EXPECT_EQ(transport.bodies().live(), 1u);
  EXPECT_EQ(transport.queued_records(), 50u);
  EXPECT_LT(transport.queue_bytes(), 50 * sizeof(Message));
  int delivered = 0;
  transport.deliver_round(1, [&](const Message& m) {
    ++delivered;
    EXPECT_EQ(m.body, body);  // the handle travels with the delivery
    EXPECT_TRUE(std::ranges::equal(m.payload, payload));
    EXPECT_EQ(m.event, (EventId{ProcessId{7}, 1}));
  });
  EXPECT_EQ(delivered, 50);
  // Last delivery dropped the last reference: the entry is recycled and
  // its payload block freed.
  EXPECT_EQ(transport.bodies().live(), 0u);
  EXPECT_EQ(transport.bodies().bytes(), 0u);
  EXPECT_EQ(transport.bodies()[body].payload.capacity(), 0u);
  EXPECT_EQ(transport.queue_bytes(), 0u);
}

TEST(Transport, DistinctEventsGetDistinctBodies) {
  Transport transport(1.0, util::Rng(1), nullptr);
  const std::uint32_t first = transport.send(make_event(1, 1, {1}).view(), 0);
  const std::uint32_t second = transport.send(make_event(1, 2, {2}).view(), 0);
  const std::uint32_t third = transport.send(make_event(2, 1, {3}).view(), 0);
  EXPECT_NE(first, second);
  EXPECT_NE(first, third);
  EXPECT_NE(second, third);
  EXPECT_EQ(transport.bodies().live(), 3u);
  // A send without a handle interns anew, even for an event in flight: the
  // pool is keyed by handle, not by event id.
  const std::uint32_t again = transport.send(make_event(1, 1, {1}).view(), 0);
  EXPECT_NE(again, first);
  EXPECT_EQ(transport.bodies().live(), 4u);
  transport.deliver_round(1, [](const Message&) {});
  EXPECT_EQ(transport.bodies().live(), 0u);
}

TEST(Transport, DroppedCopiesReleaseTheirBodyReference) {
  // Channel losses at delivery time must release body refs exactly like
  // successful deliveries — otherwise every lossy wave leaks pool entries.
  Transport transport(0.0, util::Rng(1), nullptr);
  fan_out(transport, make_event(5, 9, {1, 2, 3}), 20, 0);
  EXPECT_EQ(transport.bodies().live(), 1u);
  int delivered = 0;
  transport.deliver_round(1, [&](const Message&) { ++delivered; });
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(transport.stats().lost_channel, 20u);
  EXPECT_EQ(transport.bodies().live(), 0u);
}

TEST(Transport, FailureDropsReleaseTheirBodyReference) {
  const sim::ChurnFailures failures = stillborn(2, {1});
  Transport transport(1.0, util::Rng(1), &failures);
  fan_out(transport, make_event(0, 1, {7}), 2, 0);  // 0 alive, 1 doomed
  transport.deliver_round(1, [](const Message&) {});
  EXPECT_EQ(transport.stats().lost_failure, 1u);
  EXPECT_EQ(transport.bodies().live(), 0u);
}

TEST(Transport, SlabCapacitySurvivesDelivery) {
  // Rounds 1 and 3 share a slab: once round 1 is delivered, a wave of the
  // same shape for round 3 fits the capacity it left and allocates nothing.
  Transport transport(1.0, util::Rng(1), nullptr);
  const OwnedMessage event = make_event(1, 1, {});
  OwnedMessage ctrl;
  ctrl.kind = MsgKind::kMembership;
  ctrl.processes = {ProcessId{1}, ProcessId{2}, ProcessId{3}};
  ctrl.event_ids = {EventId{ProcessId{1}, 1}};
  const auto wave = [&](sim::Round now) {
    fan_out(transport, event, 100, now);
    for (int i = 0; i < 100; ++i) transport.send(ctrl.view(), now);
  };
  wave(0);
  transport.deliver_round(1, [](const Message&) {});
  const std::size_t before = g_allocations;
  wave(2);
  const std::size_t allocations = g_allocations - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(transport.queued_records(), 200u);
}

TEST(Transport, PeakQueueBytesRatchets) {
  Transport transport(1.0, util::Rng(1), nullptr);
  EXPECT_EQ(transport.stats().peak_queue_bytes, 0u);
  fan_out(transport, make_event(1, 1, std::vector<std::uint8_t>(100, 1)), 10,
          0);
  const std::size_t high_water = transport.queue_bytes();
  // A fan-out costs one 12 B header plus 4 B per target, beside the one
  // interned body.
  constexpr std::size_t kBody = sizeof(EventBodyPool::Body) + 100;
  EXPECT_EQ(high_water, 12 + 10 * sizeof(ProcessId) + kBody);
  EXPECT_EQ(transport.stats().peak_queue_bytes, high_water);
  EXPECT_EQ(transport.stats().peak_queue_records, 10u);
  transport.deliver_round(1, [](const Message&) {});
  // Draining does not lower the recorded peak.
  EXPECT_EQ(transport.queue_bytes(), 0u);
  EXPECT_EQ(transport.stats().peak_queue_bytes, high_water);
  // A smaller later wave does not raise it either.
  transport.send(make_event(1, 2, {}).view(), 2);
  EXPECT_EQ(transport.stats().peak_queue_bytes, high_water);
  transport.deliver_round(3, [](const Message&) {});
  // The same ten copies sent one by one pay a header each.
  OwnedMessage single = make_event(1, 3, std::vector<std::uint8_t>(100, 1));
  Message copy = single.view();
  for (std::uint32_t to = 0; to < 10; ++to) {
    copy.to = ProcessId{to};
    copy.body = transport.send(copy, 4);
  }
  EXPECT_EQ(transport.queue_bytes(), 10 * (12 + sizeof(ProcessId)) + kBody);
  EXPECT_EQ(transport.stats().peak_queue_bytes, transport.queue_bytes());
}

TEST(Transport, ControlMessageFieldsSurviveTheSlabRoundTrip) {
  // Every variable-length field is copied into slab arenas at send and
  // comes back as spans over (offset, len) slices; OwnedMessage::operator==
  // pins the full round trip.
  OwnedMessage msg;
  msg.kind = MsgKind::kMembership;
  msg.from = ProcessId{4};
  msg.to = ProcessId{9};
  msg.origin = ProcessId{12};
  msg.request_id = 77;
  msg.ttl = 5;
  msg.answer_topic = TopicId{6};
  msg.init_msg = {TopicId{1}, TopicId{2}, TopicId{9}};
  msg.processes = {ProcessId{10}, ProcessId{11}};
  msg.piggyback_topic = TopicId{8};
  msg.piggyback_super_table = {ProcessId{20}, ProcessId{21}, ProcessId{22}};
  msg.event_ids = {EventId{ProcessId{4}, 1}, EventId{ProcessId{5}, 2}};
  const OwnedMessage sent = msg;

  Transport transport(1.0, util::Rng(1), nullptr);
  transport.send(msg.view(), /*now=*/3);
  // The sender's buffers only have to live until send returns: overwrite
  // them, then free them. The delivery below must still read the originals.
  std::ranges::fill(msg.init_msg, TopicId{99});
  std::ranges::fill(msg.processes, ProcessId{99});
  std::ranges::fill(msg.piggyback_super_table, ProcessId{99});
  std::ranges::fill(msg.event_ids, EventId{ProcessId{99}, 99});
  msg = OwnedMessage{};
  // A second control message in the same slab shifts the arena offsets.
  OwnedMessage other;
  other.kind = MsgKind::kReqContact;
  other.from = ProcessId{1};
  other.to = ProcessId{2};
  other.origin = ProcessId{1};
  other.request_id = 5;
  other.ttl = 2;
  other.init_msg = {TopicId{4}};
  transport.send(other.view(), 3);

  std::vector<OwnedMessage> received;
  transport.deliver_round(4, [&](const Message& m) { received.push_back(m); });
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0], sent);
  EXPECT_EQ(received[1], other);
}

TEST(Transport, EventMessageSurvivesTheSlabRoundTrip) {
  OwnedMessage msg = make_event(3, 17, {9, 8, 7});
  msg.to = ProcessId{6};
  msg.intergroup = true;
  Transport transport(1.0, util::Rng(1), nullptr);
  transport.send(msg.view(), 2);
  std::vector<OwnedMessage> received;
  transport.deliver_round(3, [&](const Message& m) { received.push_back(m); });
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], msg);
}

TEST(Transport, MemoizedBytesSentMatchesEncodedSize) {
  // The fan-out path charges the body's memoized wire size; the total must
  // equal what per-message encoded_size() walks would have produced.
  Transport transport(1.0, util::Rng(1), nullptr);
  const OwnedMessage event =
      make_event(2, 4, std::vector<std::uint8_t>(64, 7));
  fan_out(transport, event, 25, 0);
  std::uint64_t expected = 25 * encoded_size(event.view());
  OwnedMessage ctrl;
  ctrl.kind = MsgKind::kAnsContact;
  ctrl.processes = {ProcessId{1}, ProcessId{2}};
  expected += encoded_size(ctrl.view());
  EXPECT_EQ(transport.send(ctrl.view(), 0), kNoBody);  // control: no body
  EXPECT_EQ(transport.bodies().live(), 1u);
  EXPECT_EQ(transport.stats().bytes_sent, expected);
}

// --- receiver warm-up hook --------------------------------------------------

/// One delivery round of `records` messages (every third a control message)
/// to targets 1000 + i, lossy and with two failed targets, optionally with
/// a warm hook; then a second, hook-free round that exposes the channel
/// stream's position.
struct WarmRun {
  std::vector<OwnedMessage> delivered;
  std::vector<std::size_t> warms_before;  ///< warm calls before each delivery
  std::vector<std::uint32_t> warmed;      ///< record index of each warm call
  Transport::Stats stats;
  std::vector<OwnedMessage> next_round;
};

WarmRun warm_run(std::uint32_t records, bool with_warm) {
  // Targets are 1000 .. 1499.
  const sim::ChurnFailures failures = stillborn(1500, {1003, 1017});
  Transport transport(0.7, util::Rng(5), &failures);
  const std::vector<ProcessId> shuffle{ProcessId{7}, ProcessId{8}};
  const auto send_batch = [&](sim::Round now) {
    for (std::uint32_t i = 0; i < records; ++i) {
      Message msg = make_msg(i, 1000 + i);
      if (i % 3 == 0) {
        msg.kind = MsgKind::kMembership;
        msg.processes = shuffle;
      }
      transport.send(msg, now);
    }
  };
  WarmRun run;
  send_batch(0);
  const auto sink = [&](const Message& m) {
    run.delivered.push_back(m);
    run.warms_before.push_back(run.warmed.size());
  };
  if (with_warm) {
    transport.deliver_round(1, sink, [&](ProcessId to) {
      run.warmed.push_back(to.value - 1000);
    });
  } else {
    transport.deliver_round(1, sink);
  }
  run.stats = transport.stats();
  send_batch(1);
  transport.deliver_round(
      2, [&](const Message& m) { run.next_round.push_back(m); });
  return run;
}

void expect_same_stats(const Transport::Stats& a, const Transport::Stats& b) {
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.lost_channel, b.lost_channel);
  EXPECT_EQ(a.lost_failure, b.lost_failure);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.peak_queue_bytes, b.peak_queue_bytes);
  EXPECT_EQ(a.peak_queue_records, b.peak_queue_records);
}

TEST(Transport, WarmHookSeesEachTargetOnceInSendOrderAhead) {
  constexpr std::size_t kAhead = Transport::kLookahead;
  for (const std::uint32_t records :
       {0u, 1u, 3u, static_cast<std::uint32_t>(kAhead),
        static_cast<std::uint32_t>(kAhead + 1), 40u}) {
    const WarmRun run = warm_run(records, true);
    std::vector<std::uint32_t> send_order(records);
    for (std::uint32_t i = 0; i < records; ++i) send_order[i] = i;
    EXPECT_EQ(run.warmed, send_order) << records << " records";
    if (records == 40) {
      EXPECT_LT(run.delivered.size(), records) << "nothing was dropped";
    }
    // Record i is delivered once records 0 .. i + kLookahead are warm.
    for (std::size_t d = 0; d < run.delivered.size(); ++d) {
      const std::size_t record = run.delivered[d].from.value;
      EXPECT_EQ(run.warms_before[d],
                std::min<std::size_t>(records, record + kAhead + 1))
          << "record " << record << " of " << records;
    }
  }
}

TEST(Transport, WarmHookChangesNoDeliveryStatOrDraw) {
  for (const std::uint32_t records : {3u, 40u, 500u}) {
    const WarmRun plain = warm_run(records, false);
    const WarmRun warmed = warm_run(records, true);
    EXPECT_TRUE(plain.warmed.empty());
    EXPECT_EQ(warmed.warmed.size(), records);
    EXPECT_EQ(plain.delivered, warmed.delivered) << records << " records";
    expect_same_stats(plain.stats, warmed.stats);
    EXPECT_EQ(plain.next_round, warmed.next_round) << records << " records";
  }
}

}  // namespace
}  // namespace dam::net

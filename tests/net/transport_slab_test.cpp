// Bit-identity of the slab/interned transport against the historical
// per-message queue, and of fan-out runs against the same copies sent one
// by one.
//
// The slab refactor (net/transport) promises that changing the in-flight
// REPRESENTATION changes nothing observable: delivery order, the channel
// RNG stream, the Stats counters, and every delivered message are
// identical to what the old std::map<Round, std::vector<Message>> queue
// produced. This test keeps an executable specification of that old queue
// — same coin law, same conditional failure check, same send-order replay
// — and drives both through randomized mixed-kind workloads from one
// seed, asserting the full delivered sequences compare equal via
// OwnedMessage::operator==. A fan-out is one send of a run of targets;
// queued as one header it must still deliver, count, draw and warm
// exactly like its copies sent one at a time. A control run is a 20 B
// record with an optional tail for the rarely set fields; every control
// kind, in the shapes the protocol sends, must round-trip exactly.
#include <gtest/gtest.h>

#include <map>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/protocol.hpp"
#include "net/transport.hpp"
#include "owned_message.hpp"

namespace dam::net {
namespace {

using dam::testing::OwnedMessage;

/// The pre-slab transport, verbatim semantics: whole owned messages queued
/// per round, coin flipped at delivery in send order, failure model
/// consulted only when the coin passes.
class ReferenceTransport {
 public:
  ReferenceTransport(double psucc, util::Rng rng,
                     const sim::FailureModel* failures)
      : psucc_(psucc), rng_(rng), failures_(failures) {}

  std::uint32_t send(const Message& msg, sim::Round now) {
    ++stats_.sent;
    stats_.bytes_sent += encoded_size(msg);
    in_flight_[now + 1].push_back(msg);
    return kNoBody;
  }

  void deliver_round(sim::Round round,
                     const std::function<void(const Message&)>& sink) {
    const auto it = in_flight_.find(round);
    if (it == in_flight_.end()) return;
    std::vector<OwnedMessage> batch = std::move(it->second);
    in_flight_.erase(it);
    for (const OwnedMessage& msg : batch) {
      if (!core::protocol::channel_delivers(psucc_, rng_)) {
        ++stats_.lost_channel;
        continue;
      }
      if (failures_ != nullptr &&
          !failures_->deliverable(msg.from, msg.to, round, rng_)) {
        ++stats_.lost_failure;
        continue;
      }
      ++stats_.delivered;
      sink(msg.view());
    }
  }

  [[nodiscard]] const Transport::Stats& stats() const { return stats_; }

 private:
  double psucc_;
  util::Rng rng_;
  const sim::FailureModel* failures_;
  std::map<sim::Round, std::vector<OwnedMessage>> in_flight_;
  Transport::Stats stats_;
};

/// Deterministic mixed-kind workload: event fan-outs (many copies of one
/// publication, sharing the body handle the first send returns), control
/// messages with every variable-length field populated, and mid-delivery
/// relays of the delivered view itself — the protocol's actual shapes.
template <typename T>
std::vector<OwnedMessage> drive(T& transport) {
  std::vector<OwnedMessage> delivered;
  util::Rng traffic(0xFEED);  // separate stream: identical for both sides
  std::uint32_t sequence = 0;
  for (sim::Round round = 0; round < 12; ++round) {
    // One publication fanned out to 30 targets.
    OwnedMessage event;
    event.kind = MsgKind::kEvent;
    event.from = ProcessId{static_cast<std::uint32_t>(round % 7)};
    event.topic = TopicId{2};
    event.event = EventId{event.from, ++sequence};
    event.intergroup = (round % 3) == 0;
    event.payload.assign(16 + round, static_cast<std::uint8_t>(round));
    Message copy = event.view();
    for (std::uint32_t to = 0; to < 30; ++to) {
      copy.to = ProcessId{to};
      copy.body = transport.send(copy, round);
    }
    // A burst of control traffic with populated arenas.
    for (int i = 0; i < 5; ++i) {
      OwnedMessage ctrl;
      ctrl.kind = static_cast<MsgKind>(2 + traffic.between(0, 4));
      ctrl.from = ProcessId{static_cast<std::uint32_t>(traffic.between(0, 29))};
      ctrl.to = ProcessId{static_cast<std::uint32_t>(traffic.between(0, 29))};
      ctrl.origin =
          ProcessId{static_cast<std::uint32_t>(traffic.between(0, 29))};
      ctrl.request_id = static_cast<std::uint32_t>(traffic.between(0, 999));
      ctrl.ttl = static_cast<std::uint32_t>(traffic.between(0, 4));
      ctrl.answer_topic = TopicId{static_cast<std::uint32_t>(
          traffic.between(0, 5))};
      for (auto k = traffic.between(0, 3); k > 0; --k) {
        ctrl.init_msg.push_back(
            TopicId{static_cast<std::uint32_t>(traffic.between(0, 9))});
        ctrl.processes.push_back(
            ProcessId{static_cast<std::uint32_t>(traffic.between(0, 99))});
        ctrl.event_ids.push_back(
            EventId{ProcessId{static_cast<std::uint32_t>(
                        traffic.between(0, 29))},
                    static_cast<std::uint32_t>(traffic.between(0, 50))});
      }
      if (traffic.between(0, 1) == 1) {
        ctrl.piggyback_topic = TopicId{1};
        ctrl.piggyback_super_table = {ProcessId{5}, ProcessId{6}};
      }
      transport.send(ctrl.view(), round);
    }
    transport.deliver_round(round, [&](const Message& msg) {
      // Relay every seventh delivery back to its sender as is: its spans
      // point into the delivering slab and an EVENT keeps its body handle.
      if (msg.to.value % 7 == 0) {
        Message relay = msg;
        relay.from = msg.to;
        relay.to = msg.from;
        transport.send(relay, round);
      }
      delivered.push_back(msg);  // copy: the view is only valid in-callback
    });
  }
  for (sim::Round round = 12; round < 15; ++round) {
    transport.deliver_round(round,
                            [&](const Message& msg) { delivered.push_back(msg); });
  }
  return delivered;
}

void expect_identical(double psucc, const sim::FailureModel* failures) {
  Transport slab(psucc, util::Rng(0xABCD), failures);
  ReferenceTransport reference(psucc, util::Rng(0xABCD), failures);
  const std::vector<OwnedMessage> got = drive(slab);
  const std::vector<OwnedMessage> want = drive(reference);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "first divergence at delivery " << i;
  }
  EXPECT_EQ(slab.stats().sent, reference.stats().sent);
  EXPECT_EQ(slab.stats().delivered, reference.stats().delivered);
  EXPECT_EQ(slab.stats().lost_channel, reference.stats().lost_channel);
  EXPECT_EQ(slab.stats().lost_failure, reference.stats().lost_failure);
  EXPECT_EQ(slab.stats().bytes_sent, reference.stats().bytes_sent);
}

TEST(TransportSlab, BitIdenticalToPerMessageQueueLossless) {
  expect_identical(1.0, nullptr);
}

TEST(TransportSlab, BitIdenticalToPerMessageQueueLossy) {
  expect_identical(0.85, nullptr);
}

TEST(TransportSlab, BitIdenticalToPerMessageQueueWithFailures) {
  sim::ChurnFailures failures(100);
  for (const std::uint32_t p : {3u, 11u, 24u}) {
    failures.add_downtime(ProcessId{p}, {0, sim::ChurnFailures::kNever});
  }
  expect_identical(0.85, &failures);
}

// --- fan-out runs ------------------------------------------------------------

/// What one drive of the fan-out workload observed.
struct FanOutTrace {
  std::vector<OwnedMessage> delivered;
  std::vector<std::uint32_t> warmed;  ///< warm-hook targets, in call order
  Transport::Stats stats;
};

/// A random control message of any of the six control kinds. Three in
/// four take the shape the protocol sends: a membership exchange with or
/// without a piggyback and a digest, a REQCONTACT flood with its scalars
/// and init_msg, an ANSCONTACT or NEWPROC_GIVE with its contacts, a bare
/// NEWPROC_ASK, an EVENT_REQUEST with its ids. The rest populate every
/// field whatever the kind. Any list may be empty.
OwnedMessage random_control(util::Rng& traffic) {
  const auto pick = [&traffic](std::int64_t hi) {
    return static_cast<std::uint32_t>(traffic.between(0, hi));
  };
  const auto fill = [&traffic](auto& list, const auto& make) {
    for (auto k = traffic.between(0, 3); k > 0; --k) list.push_back(make());
  };
  const auto pid = [&] { return ProcessId{pick(99)}; };
  const auto tid = [&] { return TopicId{pick(9)}; };
  const auto eid = [&] { return EventId{ProcessId{pick(39)}, pick(50)}; };
  OwnedMessage ctrl;
  ctrl.kind = static_cast<MsgKind>(2 + traffic.between(0, 5));
  ctrl.from = ProcessId{pick(39)};
  if (traffic.between(0, 3) == 0) {
    ctrl.origin = ProcessId{pick(39)};
    ctrl.request_id = pick(999);
    ctrl.ttl = pick(4);
    ctrl.answer_topic = TopicId{pick(5)};
    fill(ctrl.init_msg, tid);
    fill(ctrl.processes, pid);
    fill(ctrl.event_ids, eid);
    if (traffic.between(0, 1) == 1) {
      ctrl.piggyback_topic = TopicId{pick(5)};
      fill(ctrl.piggyback_super_table, pid);
    }
    return ctrl;
  }
  switch (ctrl.kind) {
    case MsgKind::kReqContact:
      ctrl.origin = ProcessId{pick(39)};
      ctrl.request_id = pick(999);
      ctrl.ttl = pick(4);
      fill(ctrl.init_msg, tid);
      break;
    case MsgKind::kAnsContact:
    case MsgKind::kNewProcessGive:
      ctrl.answer_topic = TopicId{pick(5)};
      fill(ctrl.processes, pid);
      break;
    case MsgKind::kMembership:
      ctrl.answer_topic = TopicId{pick(5)};
      fill(ctrl.processes, pid);
      if (traffic.between(0, 1) == 1) {
        ctrl.piggyback_topic = TopicId{pick(5)};
        fill(ctrl.piggyback_super_table, pid);
      }
      if (traffic.between(0, 1) == 1) fill(ctrl.event_ids, eid);
      break;
    case MsgKind::kEventRequest:
      fill(ctrl.event_ids, eid);
      break;
    default:  // kNewProcessAsk carries nothing but its sender
      break;
  }
  return ctrl;
}

/// Random fan-outs of 0–20 targets, events (one publication's sends share
/// the body handle the first returns) and random_control messages, plus
/// relays of delivered views as fresh fan-outs.
/// `as_runs` sends each fan-out as one run; otherwise every copy is its
/// own send, the per-message shape.
template <typename T>
FanOutTrace drive_fanouts(T& transport, bool as_runs) {
  FanOutTrace trace;
  util::Rng traffic(0xFA57);  // separate stream: identical for every side
  const auto pick = [&traffic](std::int64_t hi) {
    return static_cast<std::uint32_t>(traffic.between(0, hi));
  };
  std::vector<ProcessId> targets;
  const auto draw_targets = [&](std::int64_t most) {
    targets.clear();
    for (auto n = traffic.between(0, most); n > 0; --n) {
      targets.push_back(ProcessId{pick(39)});
    }
  };
  const auto send = [&](Message msg, sim::Round now) {
    if (as_runs) {
      if constexpr (std::is_same_v<T, Transport>) {
        return transport.send(msg, targets, now);
      }
    }
    for (const ProcessId target : targets) {
      msg.to = target;
      msg.body = transport.send(msg, now);
    }
    return msg.body;
  };
  const auto sink = [&](sim::Round round) {
    return [&, round](const Message& msg) {
      trace.delivered.push_back(msg);
      // Relay every fifth delivery as a fresh fan-out: its spans point
      // into the delivering slab and an EVENT keeps its body handle.
      if (trace.delivered.size() % 5 == 0) {
        Message relay = msg;
        relay.from = msg.to;
        draw_targets(3);
        send(relay, round);
      }
    };
  };
  const auto deliver = [&](sim::Round round, const auto& on_delivery) {
    if constexpr (std::is_same_v<T, Transport>) {
      transport.deliver_round(round, on_delivery, [&](ProcessId to) {
        trace.warmed.push_back(to.value);
      });
    } else {
      transport.deliver_round(round, on_delivery);
    }
  };
  std::uint32_t sequence = 0;
  constexpr sim::Round kRounds = 40;
  for (sim::Round round = 0; round < kRounds; ++round) {
    for (auto sends = traffic.between(0, 6); sends > 0; --sends) {
      draw_targets(20);
      if (traffic.between(0, 2) == 0) {
        OwnedMessage event;
        event.kind = MsgKind::kEvent;
        event.from = ProcessId{pick(39)};
        event.topic = TopicId{pick(3)};
        event.event = EventId{event.from, ++sequence};
        event.payload.assign(pick(24), static_cast<std::uint8_t>(round));
        // Two legs of one publication, as a disseminating node sends them.
        Message leg = event.view();
        leg.intergroup = true;
        leg.body = send(leg, round);
        leg.intergroup = false;
        draw_targets(20);
        send(leg, round);
        continue;
      }
      send(random_control(traffic).view(), round);
    }
    deliver(round, sink(round));
  }
  deliver(kRounds,
          [&](const Message& msg) { trace.delivered.push_back(msg); });
  trace.stats = transport.stats();
  return trace;
}

void expect_same_deliveries(const FanOutTrace& got, const FanOutTrace& want) {
  ASSERT_EQ(got.delivered.size(), want.delivered.size());
  for (std::size_t i = 0; i < got.delivered.size(); ++i) {
    ASSERT_EQ(got.delivered[i], want.delivered[i])
        << "first divergence at delivery " << i;
  }
  EXPECT_EQ(got.stats.sent, want.stats.sent);
  EXPECT_EQ(got.stats.delivered, want.stats.delivered);
  EXPECT_EQ(got.stats.lost_channel, want.stats.lost_channel);
  EXPECT_EQ(got.stats.lost_failure, want.stats.lost_failure);
  EXPECT_EQ(got.stats.bytes_sent, want.stats.bytes_sent);
}

TEST(TransportSlab, FanOutRunsMatchCopiesSentOneByOne) {
  // A lossy channel, and failures both permanent and mid-run.
  sim::ChurnFailures failures(40);
  for (const std::uint32_t p : {3u, 11u, 24u}) {
    failures.add_downtime(ProcessId{p}, {0, sim::ChurnFailures::kNever});
  }
  failures.add_downtime(ProcessId{7}, {4, 9});
  failures.add_downtime(ProcessId{30}, {2, 13});
  Transport runs(0.85, util::Rng(0xABCD), &failures);
  Transport copies(0.85, util::Rng(0xABCD), &failures);
  ReferenceTransport reference(0.85, util::Rng(0xABCD), &failures);
  const FanOutTrace got = drive_fanouts(runs, /*as_runs=*/true);
  const FanOutTrace one_by_one = drive_fanouts(copies, /*as_runs=*/false);
  const FanOutTrace want = drive_fanouts(reference, /*as_runs=*/false);
  EXPECT_GT(got.stats.lost_channel, 0u);
  EXPECT_GT(got.stats.lost_failure, 0u);
  expect_same_deliveries(got, want);
  expect_same_deliveries(got, one_by_one);
  EXPECT_EQ(got.stats.peak_queue_records, one_by_one.stats.peak_queue_records);
  EXPECT_EQ(got.warmed, one_by_one.warmed);
  EXPECT_EQ(got.warmed.size(), got.stats.sent);
  // One header per run instead of one per copy.
  EXPECT_LT(got.stats.peak_queue_bytes, one_by_one.stats.peak_queue_bytes);
  EXPECT_TRUE(runs.idle());
  EXPECT_EQ(runs.bodies().live(), 0u);
  EXPECT_EQ(runs.queue_bytes(), 0u);
}

TEST(TransportSlab, ControlRunCostsHeaderTargetsRecordAndIds) {
  // Header, 4 B per target, the 20 B Control, 4 B per listed process, and
  // only for a message that sets a REQCONTACT field or event ids, a 28 B
  // tail plus 4 B per init_msg topic and 8 B per event id.
  constexpr std::size_t kHeader = 12, kId = 4, kControl = 20, kTail = 28;
  Transport transport(1.0, util::Rng(1), nullptr);
  std::vector<OwnedMessage> sent;
  const auto queue_cost = [&](const OwnedMessage& msg, std::size_t targets) {
    sent.push_back(msg);
    const std::size_t before = transport.queue_bytes();
    const std::vector<ProcessId> to(targets, msg.to);
    transport.send(msg.view(), to, 0);
    return transport.queue_bytes() - before;
  };
  // The per-round membership exchange: 8 shuffle ids, a 3-entry piggyback.
  OwnedMessage membership;
  membership.kind = MsgKind::kMembership;
  membership.from = ProcessId{1};
  membership.to = ProcessId{2};
  membership.answer_topic = TopicId{4};
  for (std::uint32_t i = 0; i < 8; ++i) {
    membership.processes.push_back(ProcessId{10 + i});
  }
  membership.piggyback_topic = TopicId{3};
  membership.piggyback_super_table = {ProcessId{7}, ProcessId{8},
                                      ProcessId{9}};
  EXPECT_EQ(queue_cost(membership, 1), kHeader + kId + kControl + 11 * kId);
  static_assert(kHeader + kId + kControl + 11 * kId == 80);
  // A piggyback topic with an empty table still round-trips as present.
  OwnedMessage bare = membership;
  bare.piggyback_super_table.clear();
  EXPECT_EQ(queue_cost(bare, 1), kHeader + kId + kControl + 8 * kId);
  // A recovery digest adds the tail and its ids.
  OwnedMessage digest = membership;
  digest.event_ids = {EventId{ProcessId{1}, 1}, EventId{ProcessId{5}, 2}};
  EXPECT_EQ(queue_cost(digest, 1),
            kHeader + kId + kControl + kTail + 11 * kId + 2 * 8);
  // A REQCONTACT flood to 5 neighbors stores its fields once.
  OwnedMessage flood;
  flood.kind = MsgKind::kReqContact;
  flood.from = ProcessId{6};
  flood.to = ProcessId{3};
  flood.origin = ProcessId{6};
  flood.request_id = 9;
  flood.ttl = 3;
  flood.init_msg = {TopicId{1}, TopicId{2}};
  EXPECT_EQ(queue_cost(flood, 5),
            kHeader + 5 * kId + kControl + kTail + 2 * kId);
  // NEWPROC_ASK carries nothing but its sender.
  OwnedMessage ask;
  ask.kind = MsgKind::kNewProcessAsk;
  ask.from = ProcessId{4};
  ask.to = ProcessId{8};
  EXPECT_EQ(queue_cost(ask, 1), kHeader + kId + kControl);
  std::vector<OwnedMessage> delivered;
  transport.deliver_round(1, [&](const Message& msg) {
    delivered.push_back(msg);
  });
  ASSERT_EQ(delivered.size(), 9u);
  EXPECT_EQ(delivered[0], sent[0]);
  EXPECT_EQ(delivered[1], sent[1]);
  EXPECT_TRUE(delivered[1].piggyback_topic.has_value());
  EXPECT_EQ(delivered[2], sent[2]);
  for (std::size_t i = 3; i < 8; ++i) EXPECT_EQ(delivered[i], sent[3]);
  EXPECT_EQ(delivered[8], sent[4]);
}

TEST(TransportSlab, AnyTailFieldAloneQueuesTheTail) {
  // The tail is chosen by content, not by kind: whichever one of its
  // fields a message sets, the delivered view carries it.
  std::vector<OwnedMessage> sent(5);
  sent[0].origin = ProcessId{3};
  sent[1].request_id = 4;
  sent[2].ttl = 5;
  sent[3].init_msg = {TopicId{6}};
  sent[4].event_ids = {EventId{ProcessId{7}, 8}};
  Transport transport(1.0, util::Rng(1), nullptr);
  for (OwnedMessage& msg : sent) {
    msg.kind = MsgKind::kAnsContact;
    msg.to = ProcessId{1};
    const std::size_t before = transport.queue_bytes();
    transport.send(msg.view(), 0);
    EXPECT_GE(transport.queue_bytes() - before, 12u + 4 + 20 + 28);
  }
  std::vector<OwnedMessage> delivered;
  transport.deliver_round(1, [&](const Message& msg) {
    delivered.push_back(msg);
  });
  EXPECT_EQ(delivered, sent);
}

TEST(TransportSlab, ControlListBeyondSixteenBitsThrows) {
  Transport transport(1.0, util::Rng(1), nullptr);
  OwnedMessage give;
  give.kind = MsgKind::kNewProcessGive;
  give.to = ProcessId{1};
  give.processes.assign(0xFFFF, ProcessId{2});  // the longest list
  transport.send(give.view(), 0);
  const Transport::Stats before = transport.stats();
  const std::size_t bytes = transport.queue_bytes();
  give.processes.push_back(ProcessId{3});
  EXPECT_THROW(transport.send(give.view(), 0), std::length_error);
  OwnedMessage membership;
  membership.kind = MsgKind::kMembership;
  membership.to = ProcessId{1};
  membership.piggyback_topic = TopicId{1};
  membership.piggyback_super_table.assign(0x10000, ProcessId{2});
  EXPECT_THROW(transport.send(membership.view(), 0), std::length_error);
  // Nothing of a refused send is queued or counted.
  EXPECT_EQ(transport.queue_bytes(), bytes);
  EXPECT_EQ(transport.queued_records(), 1u);
  EXPECT_EQ(transport.stats().sent, before.sent);
  EXPECT_EQ(transport.stats().bytes_sent, before.bytes_sent);
  // Without its topic the table is not part of the message: no throw.
  membership.piggyback_topic.reset();
  transport.send(membership.view(), 0);
  std::vector<std::size_t> lengths;
  transport.deliver_round(1, [&](const Message& msg) {
    lengths.push_back(msg.processes.size() + msg.piggyback_super_table.size());
  });
  EXPECT_EQ(lengths, (std::vector<std::size_t>{0xFFFF, 0}));
}

TEST(TransportSlab, EmptyFanOutQueuesAndInternsNothing) {
  Transport transport(1.0, util::Rng(1), nullptr);
  OwnedMessage event;
  event.kind = MsgKind::kEvent;
  event.event = EventId{ProcessId{1}, 1};
  event.payload = {1, 2, 3};
  Message msg = event.view();
  EXPECT_EQ(transport.send(msg, {}, 0), kNoBody);
  EXPECT_EQ(transport.bodies().live(), 0u);
  EXPECT_EQ(transport.stats().sent, 0u);
  EXPECT_EQ(transport.stats().bytes_sent, 0u);
  EXPECT_EQ(transport.queue_bytes(), 0u);
  EXPECT_TRUE(transport.idle());
  // An empty leg after a sent one hands the handle on untouched.
  const ProcessId target{2};
  msg.body = transport.send(msg, std::span(&target, 1), 0);
  ASSERT_NE(msg.body, kNoBody);
  EXPECT_EQ(transport.send(msg, {}, 0), msg.body);
  EXPECT_EQ(transport.bodies()[msg.body].refs, 1u);
  EXPECT_EQ(transport.queued_records(), 1u);
  OwnedMessage ctrl;
  ctrl.kind = MsgKind::kNewProcessAsk;
  EXPECT_EQ(transport.send(ctrl.view(), {}, 0), kNoBody);
  EXPECT_EQ(transport.queued_records(), 1u);
}

TEST(TransportSlab, RunHoldsOneBodyReferenceUntilItsLastTarget) {
  for (const double psucc : {1.0, 0.0}) {
    Transport transport(psucc, util::Rng(1), nullptr);
    OwnedMessage event;
    event.kind = MsgKind::kEvent;
    event.event = EventId{ProcessId{1}, 1};
    event.payload.assign(50, 0x7E);
    const std::vector<ProcessId> targets{ProcessId{4}, ProcessId{5},
                                         ProcessId{6}, ProcessId{7}};
    const std::uint32_t body = transport.send(event.view(), targets, 0);
    EXPECT_EQ(transport.bodies()[body].refs, 1u);
    EXPECT_EQ(transport.queued_records(), 4u);
    std::size_t delivered = 0;
    transport.deliver_round(
        1,
        [&](const Message& msg) {
          ++delivered;
          EXPECT_EQ(msg.body, body);
          EXPECT_EQ(transport.bodies().live(), 1u);
        },
        [&](ProcessId) {
          // Warmed ahead of every copy, dropped or not: still referenced.
          EXPECT_EQ(transport.bodies().live(), 1u);
        });
    EXPECT_EQ(delivered, psucc == 1.0 ? 4u : 0u);
    // Released once, after the run's last target, and its block freed.
    EXPECT_EQ(transport.bodies().live(), 0u);
    EXPECT_EQ(transport.bodies()[body].payload.capacity(), 0u);
  }
}

TEST(TransportSlab, FanOutBeyondOneHeaderSplitsAndKeepsOrder) {
  // 70,000 targets overflow a header's 16-bit count: two headers, each
  // with its own body reference, delivered as one sequence.
  Transport transport(1.0, util::Rng(1), nullptr);
  OwnedMessage event;
  event.kind = MsgKind::kEvent;
  event.event = EventId{ProcessId{1}, 1};
  std::vector<ProcessId> targets(70'000);
  for (std::uint32_t i = 0; i < targets.size(); ++i) targets[i] = ProcessId{i};
  const std::uint32_t body = transport.send(event.view(), targets, 0);
  EXPECT_EQ(transport.bodies()[body].refs, 2u);
  EXPECT_EQ(transport.queue_bytes(),
            2 * 12 + targets.size() * sizeof(ProcessId) +
                sizeof(EventBodyPool::Body));
  std::uint32_t next = 0;
  transport.deliver_round(1, [&](const Message& msg) {
    EXPECT_EQ(msg.to.value, next++);
  });
  EXPECT_EQ(next, targets.size());
  EXPECT_EQ(transport.bodies().live(), 0u);
}

}  // namespace
}  // namespace dam::net

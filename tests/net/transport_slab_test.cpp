// Bit-identity of the slab/interned transport against the historical
// per-message queue.
//
// The slab refactor (net/transport) promises that changing the in-flight
// REPRESENTATION changes nothing observable: delivery order, the channel
// RNG stream, the Stats counters, and every delivered message are
// identical to what the old std::map<Round, std::vector<Message>> queue
// produced. This test keeps an executable specification of that old queue
// — same coin law, same conditional failure check, same send-order replay
// — and drives both through a randomized mixed-kind workload from one
// seed, asserting the full delivered sequences compare equal via
// OwnedMessage::operator==.
#include <gtest/gtest.h>

#include <map>
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
    OwnedMessage queued = msg;
    queued.sent_at = now;
    in_flight_[now + 1].push_back(std::move(queued));
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

}  // namespace
}  // namespace dam::net

// An owning copy of a net::Message, for tests that keep messages past the
// call that produced them (a fake Env's outbox, a reference queue) or build
// them with braced lists. A net::Message is a view whose spans die with the
// sender's buffers or the delivery callback; OwnedMessage holds the same
// fields in vectors, converts from a view on capture, and hands one back
// through view(). The EVENT body handle is transport state, not message
// content: a capture drops it, and view() leaves it kNoBody.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/message.hpp"

namespace dam::testing {

struct OwnedMessage {
  net::MsgKind kind = net::MsgKind::kEvent;
  topics::ProcessId from{};
  topics::ProcessId to{};
  topics::TopicId topic{};
  net::EventId event{};
  bool intergroup = false;
  std::vector<std::uint8_t> payload;
  topics::ProcessId origin{};
  std::uint32_t request_id = 0;
  std::vector<topics::TopicId> init_msg;
  std::uint32_t ttl = 0;
  topics::TopicId answer_topic{};
  std::vector<topics::ProcessId> processes;
  std::optional<topics::TopicId> piggyback_topic;
  std::vector<topics::ProcessId> piggyback_super_table;
  std::vector<net::EventId> event_ids;

  OwnedMessage() = default;

  /// Captures `msg`, copying what its spans point at. Implicit, so a
  /// view converts where an owning copy is stored.
  OwnedMessage(const net::Message& msg)
      : kind(msg.kind),
        from(msg.from),
        to(msg.to),
        topic(msg.topic),
        event(msg.event),
        intergroup(msg.intergroup),
        payload(msg.payload.begin(), msg.payload.end()),
        origin(msg.origin),
        request_id(msg.request_id),
        init_msg(msg.init_msg.begin(), msg.init_msg.end()),
        ttl(msg.ttl),
        answer_topic(msg.answer_topic),
        processes(msg.processes.begin(), msg.processes.end()),
        piggyback_topic(msg.piggyback_topic),
        piggyback_super_table(msg.piggyback_super_table.begin(),
                              msg.piggyback_super_table.end()),
        event_ids(msg.event_ids.begin(), msg.event_ids.end()) {}

  /// A view of this message, valid while it lives unchanged.
  [[nodiscard]] net::Message view() const {
    net::Message msg;
    msg.kind = kind;
    msg.from = from;
    msg.to = to;
    msg.topic = topic;
    msg.event = event;
    msg.intergroup = intergroup;
    msg.payload = payload;
    msg.origin = origin;
    msg.request_id = request_id;
    msg.init_msg = init_msg;
    msg.ttl = ttl;
    msg.answer_topic = answer_topic;
    msg.processes = processes;
    msg.piggyback_topic = piggyback_topic;
    msg.piggyback_super_table = piggyback_super_table;
    msg.event_ids = event_ids;
    return msg;
  }

  friend bool operator==(const OwnedMessage&, const OwnedMessage&) = default;
};

}  // namespace dam::testing

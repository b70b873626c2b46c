// Protocol message set.
//
// One tagged struct covers every message the paper's pseudo-code exchanges:
//   EVENT        — a published event (Fig. 5/7)
//   REQCONTACT   — bootstrap contact search, carries initMsg (Fig. 4)
//   ANSCONTACT   — bootstrap answer, carries Ψ (Fig. 4)
//   NEWPROC_ASK  — maintenance: "send me fresh superprocesses" (Fig. 6 l.20)
//   NEWPROC_GIVE — maintenance reply carrying Ψ_Tx (Fig. 6 l.4)
//   MEMBERSHIP   — underlying gossip membership exchange ([10]), with the
//                  supertopic table piggybacked (Sec. V-A.2a optimization)
//
// A Message is a non-owning view: its lists are spans. A sender points them
// at its own buffers, which need only live until send returns; a receiver
// gets spans into the transport's round slab, valid during its callback.
// A send names its receivers as a list of targets (one message, one copy
// per target), so `to` matters only on a delivered view and on the
// single-target send form, which sends to it.
//
// encoded_size gives each message's logical bytes — the size of a compact
// binary form (17 B header plus the kind's fields) — so the byte counts the
// transport reports reflect what a deployment would send.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "topics/subscriptions.hpp"
#include "topics/topic.hpp"

namespace dam::net {

using topics::ProcessId;
using topics::TopicId;

/// Globally unique event identifier: (publisher, publisher-local sequence).
struct EventId {
  ProcessId publisher{};
  std::uint32_t sequence = 0;

  friend auto operator<=>(const EventId&, const EventId&) = default;
};

enum class MsgKind : std::uint8_t {
  kEvent = 1,
  kReqContact = 2,
  kAnsContact = 3,
  kNewProcessAsk = 4,
  kNewProcessGive = 5,
  kMembership = 6,
  kEventRequest = 7,  ///< recovery: "retransmit these event ids to me"
};

/// Opaque handle of an interned EVENT body in the transport; kNoBody until
/// a transport assigns one.
inline constexpr std::uint32_t kNoBody = ~std::uint32_t{0};

struct Message {
  MsgKind kind = MsgKind::kEvent;
  ProcessId from{};
  ProcessId to{};

  // --- kEvent ---
  TopicId topic{};          ///< topic the event was published on
  EventId event{};
  bool intergroup = false;  ///< true when sent via the supertopic table
  std::span<const std::uint8_t> payload{};  ///< opaque application bytes
  /// Handle of the transport's interned (topic, event, payload), valid
  /// while the view is: a send that keeps it shares that body; a send with
  /// kNoBody interns a new one.
  std::uint32_t body = kNoBody;

  // --- kReqContact ---
  ProcessId origin{};              ///< pl, the searching process
  std::uint32_t request_id = 0;    ///< deduplicates flooded requests
  std::span<const TopicId> init_msg{};  ///< topics searched (widening list)
  std::uint32_t ttl = 0;           ///< remaining forwarding hops ("expiry")

  // --- kAnsContact / kNewProcessGive / kMembership ---
  TopicId answer_topic{};            ///< Tx: topic the contacts belong to
  std::span<const ProcessId> processes{};  ///< Ψ: contact/view payload

  // --- kMembership piggyback: sender's supertopic table + its topic ---
  std::optional<TopicId> piggyback_topic{};
  std::span<const ProcessId> piggyback_super_table{};

  // --- kMembership (history digest) / kEventRequest (wanted ids) ---
  // Recovery extension (lpbcast-style, cf. the paper's reference [6]):
  // gossip carries ids of recently seen events; receivers request what
  // they are missing.
  std::span<const EventId> event_ids{};
};

/// Logical size of `msg` in bytes: header kind(1) + from(4) + to(4) +
/// send round(8), then the kind's fields, each id 4 B, each list or payload
/// prefixed by a 4 B length. The send round is a wire-format field only:
/// the simulator's channel is one round long, so it keeps no copy of it.
[[nodiscard]] std::size_t encoded_size(const Message& msg);

}  // namespace dam::net

template <>
struct std::hash<dam::net::EventId> {
  std::size_t operator()(const dam::net::EventId& id) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(id.publisher.value) << 32) | id.sequence);
  }
};

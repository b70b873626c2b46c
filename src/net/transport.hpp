// In-memory lossy transport.
//
// Models the paper's "unreliable, i.e. best effort, channels" (Sec. III-A):
// every message is independently delivered with probability `psucc`
// (Sec. VII-A sets 0.85) in the round after it is sent, and only if the
// failure model lets it through (target alive / perceived alive). Delivery
// order within a round is the send order, keeping runs deterministic.
//
// In-flight representation: the round slab is the only owning copy of a
// queued message. A net::Message is a view (spans, no heap), and a big
// dissemination wave queues ~10·S EVENT copies of one publication, almost
// all of them in fan-outs: a node sends one message to ln(S)+c targets at
// once. So a send is a RUN — one message, many targets — and the slab
// queues each run as a 12-byte header (from, ref, count, kind, flags)
// followed by 4 bytes per target, while the bodies live in kind-segregated
// pools:
//
//   * EVENT bodies — (topic, event id, payload) interned ONCE per
//     publication in a refcounted EventBodyPool, one reference per run.
//     The body handle travels with the message: a delivered EVENT view
//     carries it, and a node that forwards the view sends it back, so
//     every run of the publication references the same body. The body
//     also memoizes the message's encoded wire size, so the hot fan-out
//     path charges Stats::bytes_sent without re-walking identical
//     payloads.
//   * Control bodies — one 20-byte Control record per run: the answer
//     topic, the piggyback topic (present iff a header flag says so), and
//     one (offset, 16-bit len, 16-bit len) slice of the slab's process
//     arena holding `processes` then `piggyback_super_table` back to back.
//     The fields only REQCONTACT and the recovery extension set (origin,
//     request_id, ttl, and the init_msg and event_ids lists) sit in a
//     ControlTail that a Control references only when the message carries
//     one of them. The per-round membership exchange — most of the queue
//     between publications — is thus 12 + 4 + 20 B plus its ids. A flooded
//     control message stores its fields once, not once per copy.
//
// The channel is one round long, so at most two rounds are ever queued:
// the round being delivered and the next. The transport keeps one slab
// per round parity, and a queued message needs no send-round stamp: it
// was sent in the round before its slab is due. deliver_round moves the
// due slab out, replays it in send order — each target of each run in
// turn, with its own channel coin and failure check — handing the sink a
// view whose spans point into that slab's arenas and into the event's
// body, then clears it and moves it back, so its capacity serves the
// round after next. Delivery order, the channel RNG stream, and all Stats
// counters but peak_queue_bytes are BIT-IDENTICAL to the historical
// per-message std::map queue fed one copy per send; the golden tests in
// tests/workload and the reference-queue test in tests/net pin this.
// Stats::peak_queue_bytes reports the high-water in-flight footprint
// (slabs + interned bodies) — the measurand the dynamic-scale bench
// gates.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "net/message.hpp"
#include "sim/failure.hpp"
#include "util/rng.hpp"

namespace dam::net {

/// Refcounted interning pool for EVENT message bodies. Every run of one
/// publication shares one entry: the first send interns it, and every
/// later send that carries its handle (Message::body) takes one more
/// reference. Entries are recycled when the last in-flight run is
/// delivered or dropped. Exposed for the transport tests; everything else
/// should treat it as a Transport implementation detail.
class EventBodyPool {
 public:
  struct Body {
    TopicId topic{};
    EventId event{};
    std::vector<std::uint8_t> payload;
    std::size_t encoded_size = 0;  ///< memoized full-message wire size
    std::uint32_t refs = 0;
  };

  /// Interns the body of `msg` (must be kEvent) in a fresh entry holding
  /// one reference; returns its id.
  std::uint32_t acquire(const Message& msg);

  /// Takes one more reference on the live entry `id`; returns `id`.
  std::uint32_t retain(std::uint32_t id) {
    assert(entries_[id].refs > 0 && "body handle outlived its message");
    ++entries_[id].refs;
    return id;
  }

  /// Drops one reference; the entry is recycled at zero.
  void release(std::uint32_t id);

  [[nodiscard]] const Body& operator[](std::uint32_t id) const {
    return entries_[id];
  }

  /// Live (referenced) entries.
  [[nodiscard]] std::size_t live() const noexcept { return live_; }

  /// Logical bytes held by live entries (Body structs + payload bytes).
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

 private:
  std::vector<Body> entries_;
  std::vector<std::uint32_t> spare_;            // recycled entry slots
  std::size_t live_ = 0;
  std::size_t bytes_ = 0;
};

class Transport {
 public:
  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t lost_channel = 0;   ///< dropped by the psucc coin
    std::uint64_t lost_failure = 0;   ///< dropped because target (perceived) failed
    std::uint64_t bytes_sent = 0;

    /// High-water logical footprint of the in-flight queue: run headers,
    /// targets, control records and tails, arena slices, and interned
    /// event bodies.
    /// Logical (element counts × element sizes), so it is bit-identical
    /// across --jobs/--threads and machines — the dynamic lane's
    /// peak_queue_bytes measurand.
    std::size_t peak_queue_bytes = 0;

    /// High-water count of queued messages (one per target of a run). The
    /// historical per-message queue held a 184-byte Message (with its heap
    /// fields) per message.
    std::uint64_t peak_queue_records = 0;
  };

  /// A channel that delivers each message with probability `psucc`.
  Transport(double psucc, util::Rng rng, const sim::FailureModel* failures)
      : psucc_(psucc), rng_(rng), failures_(failures) {}

  /// Queues one copy of `msg` per entry of `targets`, in order, for
  /// delivery at `now + 1` (`msg.to` is ignored). Returns an EVENT's body
  /// handle (`msg.body` if set, else a freshly interned one), or kNoBody
  /// for control kinds; an empty `targets` queues and interns nothing and
  /// returns `msg.body`. Throws std::logic_error if round `now - 1` was
  /// never delivered: its slab still holds those messages, and
  /// std::length_error if a control message's `processes` or
  /// `piggyback_super_table` is longer than kMaxList. Nothing is queued
  /// or counted when it throws.
  std::uint32_t send(const Message& msg, std::span<const ProcessId> targets,
                     sim::Round now);

  /// Queues one copy of `msg` to `msg.to`: a run of one.
  std::uint32_t send(const Message& msg, sim::Round now) {
    return send(msg, std::span(&msg.to, 1), now);
  }

  /// How many messages ahead of the delivery deliver_round's `warm` hook
  /// runs: far enough for a receiver's cache lines to arrive from memory
  /// while the messages before it are handled.
  static constexpr std::size_t kLookahead = 8;

  /// Delivers every message due at `round` (in send order) to `sink`.
  /// Messages the channel loses or whose target is (perceived) failed are
  /// counted but not delivered. The Message handed to the sink is a view
  /// into the round's slab and the event's body, valid only for the
  /// duration of the callback — copy what must outlive it.
  ///
  /// `warm`, if set, sees every queued message's target once, in send
  /// order, kLookahead messages before that one is delivered (the first
  /// kLookahead before any delivery), whether or not the channel and the
  /// failure model then let the message through. It is a latency hint for
  /// the host (prefetch the receiver's state), so it must not send, and it
  /// never touches the channel stream: deliveries, Stats and the stream
  /// are the same with and without it.
  void deliver_round(sim::Round round,
                     const std::function<void(const Message&)>& sink,
                     const std::function<void(ProcessId)>& warm = {});

  /// True if any message is still in flight.
  [[nodiscard]] bool idle() const noexcept { return queued_records_ == 0; }

  /// Swaps the failure model consulted at delivery time. In-flight
  /// messages and the channel RNG stream are untouched, so a model can be
  /// installed mid-setup (even after spawns already sent traffic) without
  /// losing anything.
  void set_failure_model(const sim::FailureModel* failures) noexcept {
    failures_ = failures;
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Current logical in-flight footprint (see Stats::peak_queue_bytes).
  [[nodiscard]] std::size_t queue_bytes() const noexcept;

  /// Queue high-water since the previous take_window_peak call, then
  /// resets the window to the current footprint. The flight recorder
  /// calls this at window boundaries to attribute queue pressure to the
  /// window it happened in; Stats::peak_queue_bytes (whole-run ratchet)
  /// is unaffected.
  [[nodiscard]] std::size_t take_window_peak() noexcept;

  /// Messages currently queued.
  [[nodiscard]] std::size_t queued_records() const noexcept {
    return queued_records_;
  }

  /// Live interned EVENT bodies (test observability).
  [[nodiscard]] const EventBodyPool& bodies() const noexcept {
    return bodies_;
  }

 private:
  /// One queued run: `count` copies of one message, whose targets follow
  /// in the slab's `targets`, in send order. 12 bytes, no heap. `ref` is
  /// an EventBodyPool id for kEvent (the run holds one reference) and an
  /// index into the owning slab's `controls` otherwise.
  struct Run {
    ProcessId from{};
    std::uint32_t ref = 0;
    std::uint16_t count = 0;
    MsgKind kind = MsgKind::kEvent;
    std::uint8_t flags = 0;  ///< kIntergroup | kPiggyback
  };
  static_assert(sizeof(Run) == 12);

  /// Run::flags bits: an EVENT's Message::intergroup, and whether a
  /// control message's piggyback_topic is set.
  static constexpr std::uint8_t kIntergroup = 1;
  static constexpr std::uint8_t kPiggyback = 2;

  /// Most targets one header counts; a longer send queues several headers.
  static constexpr std::size_t kMaxRun = 0xFFFF;

  /// Longest `processes` or `piggyback_super_table` a Control slices.
  static constexpr std::size_t kMaxList = 0xFFFF;

  /// Control::tail of a message that carries no ControlTail field.
  static constexpr std::uint32_t kNoTail = ~std::uint32_t{0};

  /// Per-run fields of a non-EVENT message. `processes` and then
  /// `piggyback_super_table` lie back to back in the slab's `pids`.
  struct Control {
    TopicId answer_topic{};
    TopicId piggyback_topic{};  ///< valid iff the run has kPiggyback
    std::uint32_t pid_off = 0;
    std::uint16_t pid_len = 0;  ///< processes
    std::uint16_t pig_len = 0;  ///< piggyback_super_table
    std::uint32_t tail = kNoTail;  ///< index into the slab's `tails`
  };
  static_assert(sizeof(Control) == 20);

  /// The control fields only REQCONTACT (origin, request_id, ttl,
  /// init_msg) and the recovery extension (event_ids) set.
  struct ControlTail {
    ProcessId origin{};
    std::uint32_t request_id = 0;
    std::uint32_t ttl = 0;
    std::uint32_t tid_off = 0, tid_len = 0;  ///< init_msg  -> tids
    std::uint32_t eid_off = 0, eid_len = 0;  ///< event_ids -> eids
  };

  /// Everything queued for one delivery round, SoA: run headers, their
  /// targets, control records and tails, and shared arenas the control
  /// slices point into.
  struct RoundSlab {
    sim::Round due = 0;  ///< the round the runs are delivered in
    std::vector<Run> runs;
    std::vector<ProcessId> targets;
    std::vector<Control> controls;
    std::vector<ControlTail> tails;
    std::vector<ProcessId> pids;
    std::vector<TopicId> tids;
    std::vector<EventId> eids;

    [[nodiscard]] std::size_t bytes() const noexcept {
      return runs.size() * sizeof(Run) +
             targets.size() * sizeof(ProcessId) +
             controls.size() * sizeof(Control) +
             tails.size() * sizeof(ControlTail) +
             pids.size() * sizeof(ProcessId) +
             tids.size() * sizeof(TopicId) + eids.size() * sizeof(EventId);
    }
    void clear() noexcept {  // keeps capacity — the recycling contract
      runs.clear();
      targets.clear();
      controls.clear();
      tails.clear();
      pids.clear();
      tids.clear();
      eids.clear();
    }
  };

  /// Ratchets Stats::peak_queue_bytes / peak_queue_records after a send.
  void note_high_water();

  /// The view of one queued run that deliver_round hands its sink, with
  /// `to` left for the caller to set per target.
  [[nodiscard]] Message view(const Run& run, const RoundSlab& slab) const;

  double psucc_;
  util::Rng rng_;
  const sim::FailureModel* failures_;
  std::array<RoundSlab, 2> slabs_;  ///< slab r % 2 holds round r's messages
  EventBodyPool bodies_;
  std::size_t queued_records_ = 0;  ///< queued messages (targets)
  /// Sum of RoundSlab::bytes() over the queued slabs, kept on send and on
  /// extraction so the high-water check never walks the queue.
  std::size_t slab_bytes_ = 0;
  std::size_t window_peak_bytes_ = 0;  ///< high-water since take_window_peak
  Stats stats_;
};

}  // namespace dam::net

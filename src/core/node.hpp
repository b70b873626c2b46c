// DamNode — one daMulticast process (Figures 4–7 combined).
//
// The node is pure protocol logic: all interaction with the world goes
// through the `Env` interface (sending messages, reading the clock,
// probing liveness, delivering to the application). This keeps the
// protocol unit-testable with a scripted environment and lets the
// simulation shell (`DamSystem`) stay thin.
//
// State per node:
//   * context        — identity, topic DAG, config and host (NodeContext,
//                      core/context.hpp), held once and lent to the
//                      components below, which keep no copy of it;
//   * topic table    — partial view of the own group, maintained by the
//                      underlying FlatMembership substrate ([10]);
//   * supertopic table — z contacts in the nearest non-empty supergroup;
//                      each table owns one row, mutated in place;
//   * bootstrap task  — FIND_SUPER_CONTACT state machine.
// Which events the node has already received (duplicate suppression) is
// kept by the host, behind Env::mark_seen / Env::seen. The configuration
// is the host's, shared by every node, and the state of the optional
// extensions — the recovery buffer and the REQCONTACT flood-dedup set — is
// allocated only once a node uses it, so a node that merely holds its
// tables costs no heap beyond its own object (256 B on LP64) and their two
// rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/bootstrap.hpp"
#include "core/context.hpp"
#include "core/tables.hpp"
#include "membership/flat_membership.hpp"
#include "net/message.hpp"
#include "sim/clock.hpp"
#include "util/rng.hpp"

namespace dam::core {

class DamNode {
 public:
  /// The process `context.self` on `context.topic`. The context's
  /// pointers are the host's (a host passes the same config to all its
  /// nodes) and must outlive the node. Recovery state is allocated here
  /// only if config->recovery.enabled.
  DamNode(const NodeContext& context, std::size_t group_size_estimate,
          util::Rng rng);

  /// SUBSCRIBE (Fig. 5, lines 1–4): seeds the topic table with
  /// `group_contacts` and the supertopic table with `super_contacts`
  /// (bootstrap shortcut, Fig. 4 lines 5–8); starts FIND_SUPER_CONTACT
  /// when no super contacts are supplied and the topic is not the root.
  /// `super_contacts_topic` names the group the contacts belong to — the
  /// direct supertopic by default, or a higher one when intermediate
  /// groups are empty (footnote 4). Precondition: the group contacts are
  /// distinct (a join-time sample; see FlatMembership::join).
  /// `view_slots` reserves the topic table's row up front (see
  /// DamSystem::spawn_group). Only the FIND_SUPER_CONTACT flood reaches
  /// the Env; without it the call touches this node alone.
  void subscribe(const std::vector<ProcessId>& group_contacts,
                 const std::vector<ProcessId>& super_contacts = {},
                 std::optional<TopicId> super_contacts_topic = std::nullopt,
                 std::size_t view_slots = 0);

  /// Publishes a fresh event of this node's topic; returns its id.
  /// `payload` is opaque application data carried to every subscriber.
  EventId publish(std::vector<std::uint8_t> payload = {});

  /// Entry point for every incoming message.
  void on_message(const Message& msg);

  /// Periodic driver: membership gossip, supertopic-table maintenance
  /// (Fig. 6), bootstrap timeouts. Call once per simulation round.
  void round(sim::Round now);

  /// Look-ahead stage 1: asks the CPU to start loading this node's object
  /// into cache, so a host can overlap the memory latency of an upcoming
  /// on_message or round with the work before it. A hint only: reads and
  /// changes nothing.
  void prefetch() const noexcept { prefetch_lines(this, sizeof(DamNode)); }

  /// Look-ahead stage 2, a few steps after prefetch(): reads the row
  /// pointers of the topic view and the supertopic table (cached by then)
  /// and starts loading every line of the view's row and the first line
  /// of the table's. A membership reception scans the whole view row
  /// once per merged id and evicts at random positions, so each of its
  /// lines is read; the table's row is short and read from the front.
  /// A hint only: changes nothing.
  void prefetch_state() const noexcept {
    const std::span<const ProcessId> view = membership_.view().entries();
    prefetch_lines(view.data(), view.size_bytes());
    __builtin_prefetch(super_table_.entries().data());
  }

  // --- observers ---
  [[nodiscard]] ProcessId self() const noexcept { return ctx_.self; }
  [[nodiscard]] TopicId topic() const noexcept { return ctx_.topic; }
  [[nodiscard]] bool is_root() const {
    return ctx_.hierarchy->is_root(ctx_.topic);
  }
  [[nodiscard]] const SuperTopicTable& super_table() const noexcept {
    return super_table_;
  }
  [[nodiscard]] const membership::FlatMembership& group_membership()
      const noexcept {
    return membership_;
  }
  [[nodiscard]] const BootstrapTask& bootstrap() const noexcept {
    return bootstrap_;
  }
  [[nodiscard]] bool has_seen(EventId event) const {
    return ctx_.env->seen(ctx_.self, event);
  }

  /// Entries in the REQCONTACT flood-dedup set ((origin, request_id) pairs
  /// already handled); 0 until the node handles its first flood. Feeds the
  /// flight recorder's request-set gauge.
  [[nodiscard]] std::size_t request_set_size() const noexcept {
    return seen_requests_ ? seen_requests_->size() : 0;
  }

  [[nodiscard]] std::size_t duplicate_count() const noexcept {
    return duplicates_;
  }
  /// Recovery counters; 0 when the recovery extension is off.
  [[nodiscard]] std::size_t retransmissions_sent() const noexcept {
    return recovery_ ? recovery_->retransmissions_sent : 0;
  }
  [[nodiscard]] std::size_t recovery_requests_sent() const noexcept {
    return recovery_ ? recovery_->requests_sent : 0;
  }
  [[nodiscard]] const NodeConfig& config() const noexcept {
    return *ctx_.config;
  }

  /// Total membership entries held (topic table + supertopic table) — the
  /// paper's memory-complexity metric ln(S)+c... ≤ . ≤ ln(S)+c+z.
  [[nodiscard]] std::size_t memory_footprint() const noexcept {
    return membership_.view().size() + super_table_.size();
  }

 private:
  /// Asks the CPU to load every cache line of [p, p + bytes), and the
  /// line at `p` even when `bytes` is 0.
  static void prefetch_lines(const void* p, std::size_t bytes) noexcept {
    constexpr std::uintptr_t kLine = 64;
    const auto begin = reinterpret_cast<std::uintptr_t>(p);
    std::uintptr_t line = begin & ~(kLine - 1);
    do {
      __builtin_prefetch(reinterpret_cast<const void*>(line));
      line += kLine;
    } while (line < begin + bytes);
  }

  /// DISSEMINATE (Fig. 7): intergroup leg with probability psel, then the
  /// intra-group gossip leg to fanout distinct topic-table entries, each
  /// leg one Env::send fan-out. All stochastic decisions route through the
  /// shared protocol kernel (core/protocol.hpp) so every engine makes them
  /// identically.
  void disseminate(const Message& event_msg);

  void handle_event(const Message& msg);
  void handle_req_contact(const Message& msg);
  void handle_ans_contact(const Message& msg);
  void handle_new_process_ask(const Message& msg);
  void handle_new_process_give(const Message& msg);
  void handle_membership(const Message& msg);
  void handle_event_request(const Message& msg);

  /// Brings the membership's group-size estimate (and with it the view
  /// capacity) up to Env::group_size. Called only where either is read:
  /// round() (maintain_links' psel), disseminate() (fanout, psel) and
  /// before a membership merge (view capacity). Lazy pulls are exact in
  /// DamSystem: a group only grows, and a growing capacity never draws.
  void pull_group_size();

  /// Copies `event_msg`'s body for retransmission (recovery on).
  void remember_history(const Message& event_msg);

  /// KEEP_TABLE_UPDATED (Fig. 6, lines 11–25).
  void maintain_links(sim::Round now);

  /// True iff `candidate` is a strict supertopic of the node's topic and
  /// is at least as deep as the current supertopic-table target (prefer
  /// the nearest supergroup).
  [[nodiscard]] bool better_or_equal_super(TopicId candidate) const;

  /// Liveness predicate for the supertopic table (a one-pointer closure).
  [[nodiscard]] auto alive_probe() const {
    return [this](ProcessId p) { return ctx_.env->probe_alive(p); };
  }

  /// An owning copy of a buffered event (a delivered view dies with its
  /// callback).
  struct StoredEvent {
    TopicId topic{};
    EventId event{};
    std::vector<std::uint8_t> payload;
  };

  /// Event-recovery extension state; exists only while it is enabled.
  struct RecoveryState {
    std::deque<StoredEvent> history;  ///< recent events, oldest first
    std::size_t retransmissions_sent = 0;
    std::size_t requests_sent = 0;
  };

  NodeContext ctx_;
  util::Rng rng_;

  membership::FlatMembership membership_;
  SuperTopicTable super_table_;
  BootstrapTask bootstrap_;

  std::unique_ptr<RecoveryState> recovery_;
  /// (origin, request_id) of handled floods; allocated at the first one.
  std::unique_ptr<std::unordered_set<std::uint64_t>> seen_requests_;
  std::uint32_t next_sequence_ = 0;
  bool subscribed_ = false;
  std::size_t duplicates_ = 0;
};

}  // namespace dam::core

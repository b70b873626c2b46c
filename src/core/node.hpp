// DamNode — one daMulticast process (Figures 4–7 combined).
//
// The node is pure protocol logic: all interaction with the world goes
// through the `Env` interface (sending messages, reading the clock,
// probing liveness, delivering to the application). This keeps the
// protocol unit-testable with a scripted environment and lets the
// simulation shell (`DamSystem`) stay thin.
//
// State per node:
//   * topic table   — partial view of the own group, maintained by the
//                     underlying FlatMembership substrate ([10]);
//   * supertopic table — z contacts in the nearest non-empty supergroup;
//   * bootstrap task  — FIND_SUPER_CONTACT state machine.
// Which events the node has already received (duplicate suppression) is
// kept by the host, behind Env::mark_seen / Env::seen. The configuration
// is shared by every node of a host, and the state of the optional
// extensions — the recovery buffer and the REQCONTACT flood-dedup set — is
// allocated only once a node uses it, so a node that merely holds its
// views costs no heap beyond its own object.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/bootstrap.hpp"
#include "core/params.hpp"
#include "core/tables.hpp"
#include "membership/flat_membership.hpp"
#include "net/message.hpp"
#include "sim/clock.hpp"
#include "topics/dag.hpp"
#include "util/rng.hpp"

namespace dam::core {

using net::EventId;
using net::Message;
using net::MsgKind;

/// Everything a node needs from its host. Implemented by DamSystem for
/// simulations and by scripted fakes in the unit tests.
class Env {
 public:
  virtual ~Env() = default;

  [[nodiscard]] virtual sim::Round now() const = 0;

  /// Transmit a message (node has already filled `from`/`to`).
  virtual void send(Message&& msg) = 0;

  /// Bootstrap overlay contacts of `self` (Sec. III-B: neighborhood(pl)).
  [[nodiscard]] virtual const std::vector<ProcessId>& neighborhood(
      ProcessId self) const = 0;

  /// Liveness probe used by CHECK (footnote 7: timeout-based detection).
  /// May be wrong under weak consistency; the protocol tolerates that.
  [[nodiscard]] virtual bool probe_alive(ProcessId target) const = 0;

  /// Application-level delivery callback (Fig. 5 line 8).
  virtual void deliver(ProcessId self, const Message& event_msg) = 0;

  /// Records that `self` has received `event`. True iff this is the first
  /// reception — only then does the node deliver and forward (Fig. 5 lines
  /// 5–10); false marks a duplicate.
  virtual bool mark_seen(ProcessId self, EventId event) = 0;

  /// True iff `self` has received `event` and the host still remembers it.
  [[nodiscard]] virtual bool seen(ProcessId self, EventId event) const = 0;

  /// Current size of `topic`'s group: the source of the node's group-size
  /// estimate (fanout, psel, view capacity). In a deployment this would be
  /// the membership substrate's size estimator; DamSystem answers from its
  /// registry. A node pulls it before each use, so a join costs nothing
  /// at the other members.
  [[nodiscard]] virtual std::size_t group_size(TopicId topic) const = 0;
};

struct NodeConfig {
  TopicParams params;
  membership::FlatMembership::Config membership;
  BootstrapTask::Config bootstrap;
  sim::Round maintenance_period = 4;  ///< KEEP_TABLE_UPDATED cadence

  /// Sustained-service GC: DamSystem releases a publication's seen column
  /// once it is retired AND this many rounds have passed since its first
  /// mark; 0 = never. A released id that arrives again is treated as new
  /// (extra traffic, never a correctness loss).
  std::size_t seen_gc_horizon = 0;

  /// Event-recovery extension (lpbcast-style, cf. paper reference [6]):
  /// membership gossip carries a digest of recently seen event ids;
  /// receivers request retransmission of ids they are missing. Off by
  /// default — the base paper has no recovery; the ablation bench
  /// quantifies what it buys under loss.
  struct Recovery {
    bool enabled = false;
    std::size_t history_size = 64;  ///< events buffered for retransmission
    std::size_t digest_size = 8;    ///< ids piggybacked per gossip message
  } recovery;
};

class DamNode {
 public:
  /// `config` is shared: a host passes the same one to all its nodes.
  /// Recovery state is allocated here only if config->recovery.enabled.
  DamNode(ProcessId self, TopicId topic,
          const topics::TopicDag* hierarchy,
          std::shared_ptr<const NodeConfig> config,
          std::size_t group_size_estimate, util::Rng rng, Env* env);

  /// Standalone node: wraps its own copy of `config`.
  DamNode(ProcessId self, TopicId topic,
          const topics::TopicDag* hierarchy, NodeConfig config,
          std::size_t group_size_estimate, util::Rng rng, Env* env);

  /// SUBSCRIBE (Fig. 5, lines 1–4): seeds the topic table with
  /// `group_contacts` and the supertopic table with `super_contacts`
  /// (bootstrap shortcut, Fig. 4 lines 5–8); starts FIND_SUPER_CONTACT
  /// when no super contacts are supplied and the topic is not the root.
  /// `super_contacts_topic` names the group the contacts belong to — the
  /// direct supertopic by default, or a higher one when intermediate
  /// groups are empty (footnote 4).
  void subscribe(const std::vector<ProcessId>& group_contacts,
                 const std::vector<ProcessId>& super_contacts = {},
                 std::optional<TopicId> super_contacts_topic = std::nullopt);

  /// subscribe() for an arena-backed spawn batch (DamSystem::spawn_group):
  /// the contact rows live in an immutable core::GroupViewArena, and the
  /// topic view / supertopic table read them in place (shared base with a
  /// copy-on-churn overlay) instead of copying into per-node vectors.
  /// Behavior- and RNG-stream-identical to subscribe() on the same rows;
  /// the rows must stay pinned while the node lives (DamSystem owns both).
  void subscribe_shared(std::span<const ProcessId> group_contacts,
                        std::span<const ProcessId> super_contacts,
                        std::optional<TopicId> super_contacts_topic);

  /// Publishes a fresh event of this node's topic; returns its id.
  /// `payload` is opaque application data carried to every subscriber.
  EventId publish(std::vector<std::uint8_t> payload = {});

  /// Entry point for every incoming message.
  void on_message(const Message& msg);

  /// Periodic driver: membership gossip, supertopic-table maintenance
  /// (Fig. 6), bootstrap timeouts. Call once per simulation round.
  void round(sim::Round now);

  // --- observers ---
  [[nodiscard]] ProcessId self() const noexcept { return self_; }
  [[nodiscard]] TopicId topic() const noexcept { return topic_; }
  [[nodiscard]] bool is_root() const { return hierarchy_->is_root(topic_); }
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
    return env_->seen(self_, event);
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
  [[nodiscard]] const NodeConfig& config() const noexcept { return *config_; }

  /// Total membership entries held (topic table + supertopic table) — the
  /// paper's memory-complexity metric ln(S)+c... ≤ . ≤ ln(S)+c+z.
  [[nodiscard]] std::size_t memory_footprint() const noexcept {
    return membership_.view().size() + super_table_.size();
  }

 private:
  /// DISSEMINATE (Fig. 7): intergroup leg with probability psel, then the
  /// intra-group gossip leg to fanout distinct topic-table entries. All
  /// stochastic decisions route through the shared protocol kernel
  /// (core/protocol.hpp) so every engine makes them identically.
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

  /// Buffers `event_msg` for potential retransmission (recovery on).
  void remember_history(const Message& event_msg);

  /// KEEP_TABLE_UPDATED (Fig. 6, lines 11–25).
  void maintain_links(sim::Round now);

  /// True iff `candidate` is a strict supertopic of `topic_` and is at
  /// least as deep as the current supertopic-table target (prefer the
  /// nearest supergroup).
  [[nodiscard]] bool better_or_equal_super(TopicId candidate) const;

  /// Liveness predicate for the supertopic table (a one-pointer closure).
  [[nodiscard]] auto alive_probe() const {
    return [this](ProcessId p) { return env_->probe_alive(p); };
  }

  /// Event-recovery extension state; exists only while it is enabled.
  struct RecoveryState {
    std::deque<Message> history;  ///< recent event msgs, oldest first
    std::size_t retransmissions_sent = 0;
    std::size_t requests_sent = 0;
  };

  ProcessId self_;
  TopicId topic_;
  const topics::TopicDag* hierarchy_;
  std::shared_ptr<const NodeConfig> config_;
  Env* env_;
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

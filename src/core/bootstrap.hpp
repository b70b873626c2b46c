// FIND_SUPER_CONTACT — the supertopic-table initialization task (Fig. 4).
//
// A process pl interested in Ti floods a REQCONTACT message carrying
// `initMsg`, the list of supertopics it is searching contacts for, through
// its bootstrap neighborhood. The search starts at super(Ti); on every
// timeout without a (satisfying) answer the scope widens by appending the
// next supertopic, up to the root (lines 19–27). An ANSCONTACT for topic Tx
// seeds the supertopic table; the task stops once a contact interested in
// the *direct* supertopic is found (prose of Sec. V-A.2a; see DESIGN.md
// note 2), otherwise the search narrows to topics strictly below Tx
// (line 34).
//
// This class owns only the client-side search state; the owner's
// identity, the topic DAG, the config and the host come from the node's
// NodeContext, and floods go out through its Env. Answering and forwarding
// REQCONTACTs is the receiving node's job (DamNode).
#pragma once

#include <cstdint>
#include <vector>

#include "net/message.hpp"
#include "sim/clock.hpp"
#include "topics/dag.hpp"

namespace dam::core {

using net::Message;
using topics::ProcessId;
using topics::TopicId;

struct NodeContext;

class BootstrapTask {
 public:
  /// Begins (or restarts) the search. No-op for root-topic processes (they
  /// have no supertopic). Floods a REQCONTACT to the owner's bootstrap
  /// neighborhood.
  void start(const NodeContext& ctx, sim::Round now);

  /// Periodic driver: 8 rounds after the last flood, widens `initMsg` (if
  /// possible) and re-floods. Call every round while active.
  void tick(const NodeContext& ctx, sim::Round now);

  /// Processes an ANSCONTACT for topic `answer_topic`.
  /// Returns true if the answer is *useful* (the topic is one we are
  /// searching for, i.e. a strict supertopic of ours at or below the
  /// current scope); the caller then merges the contacts into its
  /// supertopic table. Stops the task when answer_topic == super(topic),
  /// otherwise narrows the scope below `answer_topic` (Fig. 4 line 34).
  bool on_answer(const NodeContext& ctx, TopicId answer_topic);

  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Current search scope (the initMsg list), deepest first.
  [[nodiscard]] const std::vector<TopicId>& init_msg() const noexcept {
    return init_msg_;
  }

  [[nodiscard]] std::uint32_t floods_sent() const noexcept {
    return floods_sent_;
  }

 private:
  void flood(const NodeContext& ctx, sim::Round now);

  std::vector<TopicId> init_msg_;
  sim::Round last_flood_ = 0;
  std::uint32_t request_id_ = 0;
  std::uint32_t floods_sent_ = 0;
  bool active_ = false;
};

}  // namespace dam::core

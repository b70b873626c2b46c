// The "flat" gossip-based membership algorithm of [10]
// (A.-M. Kermarrec, L. Massoulié, A. J. Ganesh, "Probabilistic Reliable
// Dissemination in Large-Scale Systems", IEEE TPDS 2003), which daMulticast
// uses unchanged as its per-group substrate (Sec. V-A.1).
//
// Every member of a topic group keeps a partial view of (b+1)·ln(S) group
// members. Each round a member gossips its view (plus itself) to a few
// view entries; receivers merge, evicting uniformly at random. Fresh
// supertopic-table entries are piggybacked on these exchanges
// (Sec. V-A.2a: "this information is disseminated, using the updates of
// the underlying membership algorithm").
//
// This class holds only protocol state: the view (which owns its row; see
// membership/view.hpp), the group-size estimate and its own draw stream.
// The owner's identity, the config and the host come from the node's
// core::NodeContext, and gossip goes out through its Env, so the class is
// unit-testable with a scripted Env.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "membership/view.hpp"
#include "net/message.hpp"
#include "util/rng.hpp"

namespace dam::core {
struct NodeContext;
}

namespace dam::membership {

using net::Message;
using net::MsgKind;
using topics::TopicId;

class FlatMembership {
 public:
  /// A member for `ctx.self`, its view sized for a group of
  /// `group_size_estimate` by `ctx.config->params.view_capacity`.
  FlatMembership(const core::NodeContext& ctx,
                 std::size_t group_size_estimate, util::Rng rng);

  /// Seeds the view from an initial contact list (join). Precondition:
  /// the contacts are distinct and none is in the view yet — what a
  /// join-time sample gives (PartialView::insert_distinct).
  void join(const std::vector<ProcessId>& contacts) {
    view_.insert_distinct(contacts, rng_);
  }

  /// One membership round: initiate one view exchange of 8 entries, sent
  /// through `ctx.env`. `piggyback` is the sender's current supertopic
  /// table (may be empty); it rides along per Sec. V-A.2a. `digest` (event
  /// ids, may be empty) rides along too, for the event-recovery extension.
  void round(const core::NodeContext& ctx,
             std::span<const ProcessId> piggyback,
             std::optional<TopicId> piggyback_topic,
             std::span<const net::EventId> digest = {});

  /// Handles an incoming MEMBERSHIP message: merge sender + shipped view.
  void on_membership(const Message& msg);

  /// Removes a peer known to have failed.
  void evict(ProcessId peer) { view_.erase(peer); }

  /// Updates the group-size estimate; resizes the view bound accordingly.
  void set_group_size_estimate(const core::NodeContext& ctx,
                               std::size_t size);

  [[nodiscard]] const PartialView& view() const noexcept { return view_; }
  [[nodiscard]] PartialView& view() noexcept { return view_; }
  [[nodiscard]] std::size_t group_size_estimate() const noexcept {
    return group_size_estimate_;
  }

 private:
  std::size_t group_size_estimate_;
  PartialView view_;
  util::Rng rng_;
};

}  // namespace dam::membership

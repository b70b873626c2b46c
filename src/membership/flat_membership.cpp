#include "membership/flat_membership.hpp"

#include "core/context.hpp"

namespace dam::membership {

namespace {
/// View exchanges a member initiates per round.
constexpr std::size_t kGossipFanout = 1;
/// View entries shipped per exchange.
constexpr std::size_t kShuffleSize = 8;

/// Most view entries a group of `size` can fill: every member but the owner.
std::size_t fill_limit_for(std::size_t size) { return size > 0 ? size - 1 : 0; }
}  // namespace

FlatMembership::FlatMembership(const core::NodeContext& ctx,
                               std::size_t group_size_estimate, util::Rng rng)
    : group_size_estimate_(group_size_estimate),
      view_(ctx.self, ctx.config->params.view_capacity(group_size_estimate)),
      rng_(rng) {
  view_.set_fill_limit(fill_limit_for(group_size_estimate));
}

void FlatMembership::join(const std::vector<ProcessId>& contacts) {
  for (ProcessId contact : contacts) view_.insert(contact, rng_);
}

void FlatMembership::round(const core::NodeContext& ctx,
                           std::span<const ProcessId> piggyback,
                           std::optional<TopicId> piggyback_topic,
                           std::span<const net::EventId> digest) {
  if (view_.empty()) return;
  // Draw buffers shared by every view on this thread: a draw is read only
  // until its send returns, so a round never allocates once they have
  // grown, and no node stores them.
  thread_local std::vector<ProcessId> targets;
  thread_local std::vector<ProcessId> shuffle;
  rng_.sample_into(view_.entries(), kGossipFanout, targets);
  for (ProcessId target : targets) {
    // Ship a random view subset; the receiver learns about us implicitly
    // through msg.from.
    rng_.sample_into(view_.entries(), kShuffleSize, shuffle);
    Message msg{.kind = MsgKind::kMembership, .from = ctx.self, .to = target,
                .answer_topic = ctx.topic,
                .processes = shuffle, .event_ids = digest};
    if (piggyback_topic && !piggyback.empty()) {
      msg.piggyback_topic = piggyback_topic;
      msg.piggyback_super_table = piggyback;
    }
    ctx.env->send(msg);
  }
}

void FlatMembership::on_membership(const Message& msg) {
  view_.insert(msg.from, rng_);
  for (ProcessId peer : msg.processes) view_.insert(peer, rng_);
}

void FlatMembership::set_group_size_estimate(const core::NodeContext& ctx,
                                             std::size_t size) {
  group_size_estimate_ = size;
  view_.set_fill_limit(fill_limit_for(size));
  view_.set_capacity(ctx.config->params.view_capacity(size), rng_);
}

}  // namespace dam::membership

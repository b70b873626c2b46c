#include "core/bootstrap.hpp"

#include <algorithm>

#include "core/context.hpp"

namespace dam::core {

namespace {
/// Rounds between widening re-floods.
constexpr sim::Round kTimeout = 8;
/// REQCONTACT forwarding budget ("expiry").
constexpr std::uint32_t kTtl = 8;
}  // namespace

void BootstrapTask::start(const NodeContext& ctx, sim::Round now) {
  if (ctx.hierarchy->is_root(ctx.topic)) return;  // no supertopic to find
  active_ = true;
  init_msg_.clear();
  init_msg_.push_back(ctx.hierarchy->super(ctx.topic));
  flood(ctx, now);
}

void BootstrapTask::tick(const NodeContext& ctx, sim::Round now) {
  if (!active_) return;
  if (now < last_flood_ + kTimeout) return;
  // Timeout: widen the scope by one supertopic level unless the root is
  // already included (Fig. 4 line 24), then re-flood.
  const TopicId widest = init_msg_.back();
  if (!ctx.hierarchy->is_root(widest)) {
    init_msg_.push_back(ctx.hierarchy->super(widest));
  }
  flood(ctx, now);
}

bool BootstrapTask::on_answer(const NodeContext& ctx, TopicId answer_topic) {
  if (!active_) return false;
  // Useful answers concern a strict supertopic of ours within the scope.
  const bool in_scope = std::find(init_msg_.begin(), init_msg_.end(),
                                  answer_topic) != init_msg_.end();
  if (!in_scope) return false;
  if (answer_topic == ctx.hierarchy->super(ctx.topic)) {
    active_ = false;  // found the direct supertopic: done (line 31–32)
    return true;
  }
  // Narrow: drop every searched topic that includes answer_topic — we now
  // only look for something strictly deeper than the answer (line 34).
  init_msg_.erase(
      std::remove_if(init_msg_.begin(), init_msg_.end(),
                     [&](TopicId searched) {
                       return ctx.hierarchy->includes(searched, answer_topic);
                     }),
      init_msg_.end());
  // Scope must never become empty while active: the direct supertopic is
  // never removed by the predicate above (it never includes answer_topic
  // unless it *is* answer_topic, handled before).
  return true;
}

void BootstrapTask::flood(const NodeContext& ctx, sim::Round now) {
  last_flood_ = now;
  ++floods_sent_;
  ++request_id_;
  for (ProcessId neighbor : ctx.env->neighborhood(ctx.self)) {
    ctx.env->send({.kind = net::MsgKind::kReqContact, .from = ctx.self,
                   .to = neighbor, .origin = ctx.self,
                   .request_id = request_id_, .init_msg = init_msg_,
                   .ttl = kTtl});
  }
}

}  // namespace dam::core

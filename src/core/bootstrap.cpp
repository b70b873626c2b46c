#include "core/bootstrap.hpp"

#include <algorithm>

namespace dam::core {

BootstrapTask::BootstrapTask(ProcessId self, TopicId topic,
                             const topics::TopicDag* hierarchy,
                             Config config)
    : self_(self), topic_(topic), hierarchy_(hierarchy), config_(config) {}

void BootstrapTask::start(sim::Round now,
                          const std::vector<ProcessId>& neighbors,
                          const SendFn& send) {
  if (hierarchy_->is_root(topic_)) return;  // no supertopic to find
  active_ = true;
  init_msg_.clear();
  init_msg_.push_back(hierarchy_->super(topic_));
  flood(now, neighbors, send);
}

void BootstrapTask::tick(sim::Round now,
                         const std::vector<ProcessId>& neighbors,
                         const SendFn& send) {
  if (!active_) return;
  if (now < last_flood_ + config_.timeout) return;
  // Timeout: widen the scope by one supertopic level unless the root is
  // already included (Fig. 4 line 24), then re-flood.
  const TopicId widest = init_msg_.back();
  if (!hierarchy_->is_root(widest)) {
    init_msg_.push_back(hierarchy_->super(widest));
  }
  flood(now, neighbors, send);
}

bool BootstrapTask::on_answer(TopicId answer_topic) {
  if (!active_) return false;
  // Useful answers concern a strict supertopic of ours within the scope.
  const bool in_scope = std::find(init_msg_.begin(), init_msg_.end(),
                                  answer_topic) != init_msg_.end();
  if (!in_scope) return false;
  if (answer_topic == hierarchy_->super(topic_)) {
    active_ = false;  // found the direct supertopic: done (line 31–32)
    return true;
  }
  // Narrow: drop every searched topic that includes answer_topic — we now
  // only look for something strictly deeper than the answer (line 34).
  init_msg_.erase(
      std::remove_if(init_msg_.begin(), init_msg_.end(),
                     [&](TopicId searched) {
                       return hierarchy_->includes(searched, answer_topic);
                     }),
      init_msg_.end());
  // Scope must never become empty while active: the direct supertopic is
  // never removed by the predicate above (it never includes answer_topic
  // unless it *is* answer_topic, handled before).
  return true;
}

void BootstrapTask::flood(sim::Round now,
                          const std::vector<ProcessId>& neighbors,
                          const SendFn& send) {
  last_flood_ = now;
  ++floods_sent_;
  ++request_id_;
  for (ProcessId neighbor : neighbors) {
    send({.kind = net::MsgKind::kReqContact, .from = self_, .to = neighbor,
          .origin = self_, .request_id = request_id_, .init_msg = init_msg_,
          .ttl = config_.ttl});
  }
}

}  // namespace dam::core

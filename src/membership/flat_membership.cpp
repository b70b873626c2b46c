#include "membership/flat_membership.hpp"

#include <cmath>

namespace dam::membership {

namespace {
/// Most view entries a group of `size` can fill: every member but the owner.
std::size_t fill_limit_for(std::size_t size) { return size > 0 ? size - 1 : 0; }
}  // namespace

std::size_t FlatMembership::capacity_for(double b, std::size_t size) {
  if (size < 2) return 1;
  const double raw = (b + 1.0) * std::log(static_cast<double>(size));
  return static_cast<std::size_t>(std::ceil(std::max(raw, 1.0)));
}

FlatMembership::FlatMembership(ProcessId self, TopicId topic, Config config,
                               std::size_t group_size_estimate, util::Rng rng)
    : self_(self),
      topic_(topic),
      config_(config),
      group_size_estimate_(group_size_estimate),
      view_(self, capacity_for(config.b, group_size_estimate)),
      rng_(rng) {
  view_.set_fill_limit(fill_limit_for(group_size_estimate));
}

void FlatMembership::join(const std::vector<ProcessId>& contacts) {
  for (ProcessId contact : contacts) view_.insert(contact, rng_);
}

void FlatMembership::adopt(std::span<const ProcessId> base) {
  if (base.size() <= view_.capacity()) {
    view_.seed(base);
    return;
  }
  for (ProcessId contact : base) view_.insert(contact, rng_);
}

void FlatMembership::round(sim::Round now,
                           std::span<const ProcessId> piggyback,
                           std::optional<TopicId> piggyback_topic,
                           const SendFn& send) {
  if (view_.empty()) return;
  const auto targets = view_.sample(config_.gossip_fanout, rng_);
  for (ProcessId target : targets) {
    Message msg;
    msg.kind = MsgKind::kMembership;
    msg.from = self_;
    msg.to = target;
    msg.sent_at = now;
    msg.answer_topic = topic_;
    // Ship a random view subset; the receiver learns about us implicitly
    // through msg.from.
    msg.processes = view_.sample(config_.shuffle_size, rng_);
    if (piggyback_topic && !piggyback.empty()) {
      msg.piggyback_topic = piggyback_topic;
      msg.piggyback_super_table.assign(piggyback.begin(), piggyback.end());
    }
    send(std::move(msg));
  }
}

void FlatMembership::on_membership(const Message& msg) {
  view_.insert(msg.from, rng_);
  for (ProcessId peer : msg.processes) view_.insert(peer, rng_);
}

void FlatMembership::set_group_size_estimate(std::size_t size) {
  group_size_estimate_ = size;
  view_.set_fill_limit(fill_limit_for(size));
  view_.set_capacity(capacity_for(config_.b, size), rng_);
}

}  // namespace dam::membership

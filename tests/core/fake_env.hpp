// Scripted Env for unit-testing DamNode without a simulator. Sends and
// deliveries are captured as OwnedMessages, since the node's views die
// with the call.
#pragma once

#include <functional>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/node.hpp"
#include "owned_message.hpp"

namespace dam::core::testing {

using dam::testing::OwnedMessage;

class FakeEnv final : public Env {
 public:
  [[nodiscard]] sim::Round now() const override { return now_; }

  /// Expands a fan-out into one outbox entry (or on_send call) per
  /// target, in order, each addressed to its target.
  using Env::send;
  std::uint32_t send(const Message& msg,
                     std::span<const ProcessId> targets) override {
    ++fanouts;
    Message copy = msg;
    for (const ProcessId target : targets) {
      copy.to = target;
      if (on_send) {
        on_send(copy);
      } else {
        outbox.push_back(copy);
      }
    }
    return net::kNoBody;
  }

  [[nodiscard]] const std::vector<ProcessId>& neighborhood(
      ProcessId self) const override {
    static const std::vector<ProcessId> kEmpty;
    auto it = neighbors.find(self.value);
    return it == neighbors.end() ? kEmpty : it->second;
  }

  [[nodiscard]] bool probe_alive(ProcessId target) const override {
    return alive ? alive(target) : true;
  }

  void deliver(ProcessId self, const Message& event_msg) override {
    delivered.emplace_back(self, event_msg);
  }

  bool mark_seen(ProcessId self, EventId event) override {
    return seen_store.emplace(self.value, event).second;
  }

  [[nodiscard]] bool seen(ProcessId self, EventId event) const override {
    return seen_store.contains({self.value, event});
  }

  /// Reads `group_sizes`, which a test sets for every topic its nodes use
  /// (an unset topic throws, so a missing setup fails loudly).
  [[nodiscard]] std::size_t group_size(TopicId topic) const override {
    return group_sizes.at(topic.value);
  }

  /// Messages of a given kind currently in the outbox.
  [[nodiscard]] std::vector<OwnedMessage> sent_of_kind(MsgKind kind) const {
    std::vector<OwnedMessage> matching;
    for (const OwnedMessage& msg : outbox) {
      if (msg.kind == kind) matching.push_back(msg);
    }
    return matching;
  }

  void clear() {
    outbox.clear();
    delivered.clear();
    fanouts = 0;
  }

  sim::Round now_ = 0;
  std::vector<OwnedMessage> outbox;
  std::size_t fanouts = 0;  ///< send calls: one per fan-out, of any size
  /// If set, sends go here instead of into the outbox (no copy), one call
  /// per target. It must not hand the copy to a node: the nodes on a
  /// thread share one fan-out target buffer, which the call still reads.
  std::function<void(const Message&)> on_send;
  std::unordered_map<std::uint32_t, std::vector<ProcessId>> neighbors;
  std::function<bool(ProcessId)> alive;
  std::vector<std::pair<ProcessId, OwnedMessage>> delivered;
  std::set<std::pair<std::uint32_t, EventId>> seen_store;
  std::unordered_map<std::uint32_t, std::size_t> group_sizes;  ///< by topic
};

}  // namespace dam::core::testing

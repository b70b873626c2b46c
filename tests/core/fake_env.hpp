// Scripted Env for unit-testing DamNode without a simulator.
#pragma once

#include <functional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/node.hpp"

namespace dam::core::testing {

class FakeEnv final : public Env {
 public:
  [[nodiscard]] sim::Round now() const override { return now_; }

  void send(Message&& msg) override { outbox.push_back(std::move(msg)); }

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
  [[nodiscard]] std::vector<Message> sent_of_kind(MsgKind kind) const {
    std::vector<Message> matching;
    for (const Message& msg : outbox) {
      if (msg.kind == kind) matching.push_back(msg);
    }
    return matching;
  }

  void clear() { outbox.clear(); delivered.clear(); }

  sim::Round now_ = 0;
  std::vector<Message> outbox;
  std::unordered_map<std::uint32_t, std::vector<ProcessId>> neighbors;
  std::function<bool(ProcessId)> alive;
  std::vector<std::pair<ProcessId, Message>> delivered;
  std::set<std::pair<std::uint32_t, EventId>> seen_store;
  std::unordered_map<std::uint32_t, std::size_t> group_sizes;  ///< by topic
};

}  // namespace dam::core::testing

// Process-to-topic interest registry.
//
// The paper assumes (Sec. III-A) each process is interested in exactly one
// topic Ti — and consequently in all subtopics of Ti. This registry records
// that assignment and answers the group queries used everywhere else:
// Π_Ti (the group of processes interested in Ti) and S_Ti = |Π_Ti|.
//
// The registry only appends: a process keeps its topic for life, and a
// group lists its members in ascending id order. Groups are indexed by
// TopicId::value; a topic nobody joined has an empty group, including one
// interned after the last join.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "topics/dag.hpp"

namespace dam::topics {

/// Dense process identifier; processes are created 0..n-1 by the harness.
struct ProcessId {
  std::uint32_t value = 0;

  friend auto operator<=>(const ProcessId&, const ProcessId&) = default;
};

class SubscriptionRegistry {
 public:
  explicit SubscriptionRegistry(const TopicDag& hierarchy)
      : hierarchy_(&hierarchy) {}

  /// Registers a new process interested in `topic`; returns its id, one
  /// past every id registered before.
  ProcessId add_process(TopicId topic);

  [[nodiscard]] std::size_t process_count() const noexcept {
    return interest_.size();
  }

  /// The single topic `process` is interested in.
  [[nodiscard]] TopicId topic_of(ProcessId process) const {
    return interest_.at(process.value);
  }

  /// Π_Ti: processes whose topic of interest is exactly `topic`, in
  /// ascending id order. Valid until the next add_process.
  [[nodiscard]] const std::vector<ProcessId>& group(TopicId topic) const {
    return topic.value < groups_.size() ? groups_[topic.value] : kEmptyGroup;
  }

  /// S_Ti = |Π_Ti|.
  [[nodiscard]] std::size_t group_size(TopicId topic) const {
    return group(topic).size();
  }

  /// True iff `process` is interested in events of `topic`: its topic of
  /// interest includes `topic` (equals it or is a supertopic). Receiving
  /// such an event is never parasitic.
  [[nodiscard]] bool interested_in(ProcessId process, TopicId topic) const {
    return hierarchy_->includes(topic_of(process), topic);
  }

  /// Nearest non-empty supergroup of `topic`: walks super(topic),
  /// super(super(topic)), ... and returns the first topic with a non-empty
  /// group, or nullopt if all (including root) are empty. This is the group
  /// the supertopic table should point at (Sec. III-B, footnote 4).
  [[nodiscard]] std::optional<TopicId> nearest_nonempty_supergroup(
      TopicId topic) const;

  [[nodiscard]] const TopicDag& hierarchy() const noexcept {
    return *hierarchy_;
  }

 private:
  const TopicDag* hierarchy_;
  std::vector<TopicId> interest_;  // indexed by ProcessId
  std::vector<std::vector<ProcessId>> groups_;  // indexed by TopicId
  static const std::vector<ProcessId> kEmptyGroup;
};

}  // namespace dam::topics

template <>
struct std::hash<dam::topics::ProcessId> {
  std::size_t operator()(const dam::topics::ProcessId& id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value);
  }
};

#include "topics/subscriptions.hpp"

#include <stdexcept>

namespace dam::topics {

const std::vector<ProcessId> SubscriptionRegistry::kEmptyGroup{};

ProcessId SubscriptionRegistry::add_process(TopicId topic) {
  if (topic.value >= hierarchy_->size()) {
    throw std::out_of_range("SubscriptionRegistry: unknown topic id");
  }
  // Topics can be interned after the registry was built (PubSub does so
  // lazily), so the table grows to the hierarchy on demand.
  if (groups_.size() < hierarchy_->size()) groups_.resize(hierarchy_->size());
  const auto id = ProcessId{static_cast<std::uint32_t>(interest_.size())};
  interest_.push_back(topic);
  groups_[topic.value].push_back(id);
  return id;
}

std::optional<TopicId> SubscriptionRegistry::nearest_nonempty_supergroup(
    TopicId topic) const {
  if (hierarchy_->is_root(topic)) return std::nullopt;
  TopicId cursor = topic;
  while (!hierarchy_->is_root(cursor)) {
    cursor = hierarchy_->super(cursor);
    if (!group(cursor).empty()) return cursor;
  }
  return std::nullopt;
}

}  // namespace dam::topics

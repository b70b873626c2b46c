#include "core/tables.hpp"

#include <algorithm>

namespace dam::core {

bool SuperTopicTable::contains(ProcessId p) const noexcept {
  const auto current = entries();
  return std::find(current.begin(), current.end(), p) != current.end();
}

void SuperTopicTable::seed(TopicId topic, std::span<const ProcessId> base) {
  super_topic_ = topic;
  has_super_topic_ = true;
  base_ = base;
  shared_ = true;
  entries_.clear();
}

void SuperTopicTable::materialize() {
  if (!shared_) return;
  entries_.assign(base_.begin(), base_.end());
  shared_ = false;
}

}  // namespace dam::core

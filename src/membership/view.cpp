#include "membership/view.hpp"

namespace dam::membership {

void PartialView::seed(std::span<const ProcessId> base) {
  base_ = base;
  shared_ = true;
  entries_.clear();
}

void PartialView::materialize() {
  if (!shared_) return;
  entries_.reserve(std::max(base_.size(), reserve_target()));
  entries_.assign(base_.begin(), base_.end());
  shared_ = false;
}

bool PartialView::insert(ProcessId p, util::Rng& rng) {
  if (p == owner_ || capacity_ == 0) return false;
  if (contains(p)) return false;
  materialize();
  if (full()) {
    // Uniform random eviction keeps the view an (approximately) uniform
    // sample of the group under repeated gossip exchanges.
    entries_[rng.below(entries_.size())] = p;
    return true;
  }
  if (entries_.size() == entries_.capacity() &&
      reserve_target() > entries_.size()) {
    entries_.reserve(reserve_target());  // not size() * 2
  }
  entries_.push_back(p);
  return true;
}

bool PartialView::erase(ProcessId p) {
  if (!contains(p)) return false;
  materialize();
  entries_.erase(std::find(entries_.begin(), entries_.end(), p));
  return true;
}

void PartialView::set_capacity(std::size_t capacity, util::Rng& rng) {
  capacity_ = clamp32(capacity);
  if (size() <= capacity_) return;
  materialize();
  while (entries_.size() > capacity_) {
    entries_[rng.below(entries_.size())] = entries_.back();
    entries_.pop_back();
  }
}

}  // namespace dam::membership

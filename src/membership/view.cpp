#include "membership/view.hpp"

#include <cassert>

namespace dam::membership {

bool PartialView::insert(ProcessId p, util::Rng& rng) {
  if (p == owner_ || capacity_ == 0) return false;
  if (contains(p)) return false;
  place(p, rng);
  return true;
}

void PartialView::insert_distinct(std::span<const ProcessId> peers,
                                  util::Rng& rng) {
  const std::size_t fill = entries_.size() + peers.size();
  if (fill <= capacity_ &&
      std::find(peers.begin(), peers.end(), owner_) == peers.end()) {
    // No insert would evict or skip: append the whole run at once.
    if (fill > entries_.capacity()) {
      entries_.reserve(std::max(fill, reserve_target()));
    }
    entries_.insert(entries_.end(), peers.begin(), peers.end());
    return;
  }
  for (ProcessId p : peers) {
    assert(!contains(p));
    if (p != owner_ && capacity_ != 0) place(p, rng);
  }
}

void PartialView::place(ProcessId p, util::Rng& rng) {
  if (full()) {
    // Uniform random eviction keeps the view an (approximately) uniform
    // sample of the group under repeated gossip exchanges.
    entries_[rng.below(entries_.size())] = p;
    return;
  }
  if (entries_.size() == entries_.capacity() &&
      reserve_target() > entries_.size()) {
    entries_.reserve(reserve_target());  // not size() * 2
  }
  entries_.push_back(p);
}

bool PartialView::erase(ProcessId p) {
  const auto it = std::find(entries_.begin(), entries_.end(), p);
  if (it == entries_.end()) return false;
  entries_.erase(it);
  return true;
}

void PartialView::set_capacity(std::size_t capacity, util::Rng& rng) {
  capacity_ = clamp32(capacity);
  while (entries_.size() > capacity_) {
    entries_[rng.below(entries_.size())] = entries_.back();
    entries_.pop_back();
  }
}

}  // namespace dam::membership

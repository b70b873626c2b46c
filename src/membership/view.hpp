// Bounded partial membership view.
//
// The underlying membership substrate ([10], Kermarrec–Massoulié–Ganesh)
// gives every process a uniform random partial view of its group, of size
// (b+1)·ln(S). This container enforces the bound: inserting into a full
// view evicts a uniformly random entry, which is what keeps views uniform
// under gossip exchange. Never contains duplicates or the owner itself.
//
// The view owns its one row and mutates it in place. The row is sized
// once per capacity: a push into a full buffer reserves the (grown)
// capacity instead of doubling, capped by the fill limit — the most
// entries the owner's group can supply — so small groups never reserve
// slots no member could fill. A caller that knows the row's future width
// (DamSystem::spawn_group) reserves it up front. Sizing changes
// allocations only, never the contents or the draws.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "topics/subscriptions.hpp"
#include "util/rng.hpp"

namespace dam::membership {

using topics::ProcessId;

class PartialView {
 public:
  PartialView(ProcessId owner, std::size_t capacity)
      : owner_(owner), capacity_(clamp32(capacity)) {}

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] bool full() const noexcept { return size() >= capacity_; }
  [[nodiscard]] ProcessId owner() const noexcept { return owner_; }

  /// A full pass over the row with no early exit: the loop has no branch
  /// on the data, so the compiler vectorises it, and a warm row of a few
  /// lines (DamNode::prefetch_state) costs a few compares per line.
  [[nodiscard]] bool contains(ProcessId p) const noexcept {
    const ProcessId* e = entries_.data();
    const std::size_t n = entries_.size();
    unsigned hit = 0;  // not bool: GCC 12 vectorises only an int OR
    for (std::size_t i = 0; i < n; ++i) hit |= e[i].value == p.value;
    return hit != 0;
  }

  /// Inserts `p`. Ignores the owner and duplicates. When full, evicts a
  /// uniformly random current entry. Returns true if `p` is now present
  /// and was not before.
  bool insert(ProcessId p, util::Rng& rng);

  /// insert() of every peer in order, without the duplicate scans.
  /// Precondition: the peers are distinct and none is a current entry —
  /// what a join-time sample gives. Same entries, same eviction draws.
  void insert_distinct(std::span<const ProcessId> peers, util::Rng& rng);

  /// Reserves room for `slots` entries. Touches no entry and no draw.
  void reserve(std::size_t slots) { entries_.reserve(slots); }

  /// Removes `p` if present; returns true if removed.
  bool erase(ProcessId p);

  /// Retains only entries satisfying `keep`.
  template <typename Predicate>
  void retain(Predicate keep) {
    std::erase_if(entries_, [&](ProcessId p) { return !keep(p); });
  }

  /// Up to `k` distinct entries drawn uniformly.
  [[nodiscard]] std::vector<ProcessId> sample(std::size_t k,
                                              util::Rng& rng) const {
    return rng.sample(entries(), k);
  }

  /// A uniformly random entry; a one-entry view has nothing to draw
  /// between and consumes no draw, as sampling one entry does.
  /// Precondition: !empty().
  [[nodiscard]] ProcessId pick(util::Rng& rng) const {
    const std::size_t n = entries_.size();
    return entries_[n == 1 ? 0 : rng.below(n)];
  }

  [[nodiscard]] std::span<const ProcessId> entries() const noexcept {
    return entries_;
  }

  void clear() noexcept { entries_.clear(); }

  /// Grows or shrinks the capacity (group-size estimates change as
  /// membership gossip spreads). Shrinking evicts random entries.
  void set_capacity(std::size_t capacity, util::Rng& rng);

  /// Caps the row's reservations at `limit` entries (see file comment);
  /// unlimited by default. Touches no entry and no draw.
  void set_fill_limit(std::size_t limit) noexcept {
    fill_limit_ = clamp32(limit);
  }

 private:
  static std::uint32_t clamp32(std::size_t value) noexcept {
    constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
    return static_cast<std::uint32_t>(std::min(value, kMax));
  }

  /// Adds `p`, which is neither the owner nor an entry: evicts a random
  /// entry when full, else appends.
  void place(ProcessId p, util::Rng& rng);

  /// Entries the row is sized for: the capacity, capped by the fill limit.
  [[nodiscard]] std::size_t reserve_target() const noexcept {
    return std::min<std::size_t>(capacity_, fill_limit_);
  }

  // The three scalars share one 16-byte block ahead of the row.
  ProcessId owner_;
  std::uint32_t fill_limit_ = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t capacity_;
  std::vector<ProcessId> entries_;
};

}  // namespace dam::membership

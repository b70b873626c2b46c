// Bounded partial membership view.
//
// The underlying membership substrate ([10], Kermarrec–Massoulié–Ganesh)
// gives every process a uniform random partial view of its group, of size
// (b+1)·ln(S). This container enforces the bound: inserting into a full
// view evicts a uniformly random entry, which is what keeps views uniform
// under gossip exchange. Never contains duplicates or the owner itself.
//
// Two storage modes:
//   * owned   — the historical mode: the view owns a little entries vector.
//   * shared  — the view reads an immutable arena row (seed()): the initial
//     contacts of a DamSystem::spawn_group batch live once in a flat CSR
//     arena (core::GroupViewArena) instead of S per-node vectors. The first
//     mutation — gossip merge, eviction, capacity shrink — copies the row
//     into the owned overlay (copy-on-churn) and the view behaves exactly
//     like the owned one from then on, bit-for-bit: same entry order, same
//     eviction draws. Churn-free nodes never allocate view storage at all.
//
// The owned overlay is sized once per capacity: materializing reserves the
// capacity, and a push into a full buffer reserves the (grown) capacity
// instead of doubling. Both are capped by the fill limit — the most
// entries the owner's group can supply — so small groups never reserve
// slots no member could fill. Sizing changes allocations only, never the
// contents or the draws.
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
  [[nodiscard]] std::size_t size() const noexcept { return entries().size(); }
  [[nodiscard]] bool empty() const noexcept { return entries().empty(); }
  [[nodiscard]] bool full() const noexcept { return size() >= capacity_; }
  [[nodiscard]] ProcessId owner() const noexcept { return owner_; }

  [[nodiscard]] bool contains(ProcessId p) const noexcept {
    const auto current = entries();
    return std::find(current.begin(), current.end(), p) != current.end();
  }

  /// Adopts an immutable arena row as the view contents (shared mode; see
  /// file comment). Precondition (guaranteed by the spawn-batch sampler):
  /// entries are distinct, exclude the owner, and fit the capacity — i.e.
  /// exactly what a join() of the same row would have produced, minus the
  /// copy. The row must outlive the view or its first mutation, whichever
  /// comes first.
  void seed(std::span<const ProcessId> base);

  /// True while reads are still served by the shared arena row.
  [[nodiscard]] bool shares_base() const noexcept { return shared_; }

  /// The arena row this view was seeded from (empty if none). Stays
  /// observable after the copy-on-churn materialization so overlay deltas
  /// can be diffed against the base.
  [[nodiscard]] std::span<const ProcessId> base() const noexcept {
    return base_;
  }

  /// Inserts `p`. Ignores the owner and duplicates. When full, evicts a
  /// uniformly random current entry. Returns true if `p` is now present
  /// and was not before.
  bool insert(ProcessId p, util::Rng& rng);

  /// Removes `p` if present; returns true if removed.
  bool erase(ProcessId p);

  /// Retains only entries satisfying `keep`.
  template <typename Predicate>
  void retain(Predicate keep) {
    if (shared_ && std::all_of(base_.begin(), base_.end(), keep)) return;
    materialize();
    entries_.erase(
        std::remove_if(entries_.begin(), entries_.end(),
                       [&](ProcessId p) { return !keep(p); }),
        entries_.end());
  }

  /// Up to `k` distinct entries drawn uniformly.
  [[nodiscard]] std::vector<ProcessId> sample(std::size_t k,
                                              util::Rng& rng) const {
    return rng.sample(entries(), k);
  }

  /// A uniformly random entry. Precondition: !empty().
  [[nodiscard]] ProcessId pick(util::Rng& rng) const {
    const auto current = entries();
    return current[rng.below(current.size())];
  }

  [[nodiscard]] std::span<const ProcessId> entries() const noexcept {
    return shared_ ? base_ : std::span<const ProcessId>(entries_);
  }

  void clear() noexcept {
    shared_ = false;
    entries_.clear();
  }

  /// Grows or shrinks the capacity (group-size estimates change as
  /// membership gossip spreads). Shrinking evicts random entries.
  void set_capacity(std::size_t capacity, util::Rng& rng);

  /// Caps the overlay's reservations at `limit` entries (see file
  /// comment); unlimited by default. Touches no entry and no draw.
  void set_fill_limit(std::size_t limit) noexcept {
    fill_limit_ = clamp32(limit);
  }

 private:
  static std::uint32_t clamp32(std::size_t value) noexcept {
    constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
    return static_cast<std::uint32_t>(std::min(value, kMax));
  }

  /// Copy-on-churn: copies the shared base row into the owned overlay so
  /// the pending mutation proceeds exactly as it would have on an owned
  /// vector holding the same entries in the same order.
  void materialize();

  /// Entries the owned overlay is sized for: the capacity, capped by the
  /// fill limit.
  [[nodiscard]] std::size_t reserve_target() const noexcept {
    return std::min<std::size_t>(capacity_, fill_limit_);
  }

  // The four scalars share one 16-byte block ahead of the row pointers.
  ProcessId owner_;
  std::uint32_t fill_limit_ = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t capacity_;
  bool shared_ = false;                ///< reads served by base_
  std::span<const ProcessId> base_{};  ///< shared arena row (may be stale
                                       ///< of entries_ once materialized)
  std::vector<ProcessId> entries_;     ///< owned overlay
};

}  // namespace dam::membership

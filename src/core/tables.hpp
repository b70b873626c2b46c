// The membership tables of daMulticast processes (Sec. V-A.1, Fig. 3) and
// the flat CSR arenas that back them at scale.
//
//  * BasicGroupTables — one group's membership rows packed into contiguous
//    CSR buffers. Both engines share this layout: the frozen engine stores
//    process indices (GroupTables = BasicGroupTables<uint32>), the dynamic
//    engine stores ProcessId rows that DamNode reads through spans
//    (GroupViewArena = BasicGroupTables<ProcessId>). One arena replaces S
//    (or S×parents) little heap vectors.
//  * Topic table (Table^l_Ti)  — processes interested in the same topic;
//    populated and kept fresh by the underlying gossip membership. Size
//    (b+1)·ln(S). We wrap membership::PartialView.
//  * Supertopic table (sTable^l_Ti) — constant size z; holds processes of
//    the nearest non-empty supergroup. MERGE keeps "favorite" (still-alive)
//    entries and fills the rest with fresh ones (footnote 5); CHECK counts
//    alive entries via an aliveness probe (footnote 7: timeouts).
//
// Shared-base mode: a SuperTopicTable spawned from a batch arena reads its
// entries straight out of the arena row (seed()); the first mutation copies
// the row into an owned overlay (copy-on-churn), after which the table
// behaves exactly like the historical owned-vector one. The base row stays
// observable (base()) so tests can diff overlay deltas against the arena.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "membership/view.hpp"
#include "topics/topic.hpp"
#include "util/rng.hpp"

namespace dam::core {

using membership::PartialView;
using topics::ProcessId;
using topics::TopicId;

/// Flat CSR membership arena for one group — the tables of every process,
/// packed into contiguous buffers instead of S (or S×parents) little heap
/// vectors:
///   * topic-table row of process i:
///       topic_entries[topic_offsets[i] .. topic_offsets[i+1])
///   * supertopic table of (process i, parent slot s):
///       super_entries[super_offsets[i*parent_count + s] ..
///                     super_offsets[i*parent_count + s + 1])
/// Peak memory is the O(S·k) arena itself; construction allocates nothing
/// per process. `Entry` is a process index (frozen engine) or a ProcessId
/// (dynamic engine) — same layout, same accessors.
template <typename Entry>
struct BasicGroupTables {
  std::size_t size = 0;
  std::size_t parent_count = 0;
  std::vector<std::uint32_t> topic_offsets;  ///< size + 1
  std::vector<Entry> topic_entries;
  std::vector<std::uint32_t> super_offsets;  ///< size * parent_count + 1
  std::vector<Entry> super_entries;
  std::vector<bool> alive;  ///< stillborn regime; all-true otherwise
                            ///< (frozen engine only; empty in view arenas)

  [[nodiscard]] std::span<const Entry> topic_row(std::size_t process) const {
    return {topic_entries.data() + topic_offsets[process],
            topic_entries.data() + topic_offsets[process + 1]};
  }

  [[nodiscard]] std::span<const Entry> super_row(std::size_t process,
                                                 std::size_t slot) const {
    const std::size_t row = process * parent_count + slot;
    return {super_entries.data() + super_offsets[row],
            super_entries.data() + super_offsets[row + 1]};
  }

  /// Bytes held by the four flat buffers (the membership footprint).
  [[nodiscard]] std::size_t arena_bytes() const noexcept {
    return (topic_offsets.capacity() + super_offsets.capacity()) *
               sizeof(std::uint32_t) +
           (topic_entries.capacity() + super_entries.capacity()) *
               sizeof(Entry);
  }
};

/// The frozen engine's instantiation: entries are process indices within
/// the group/parent group (see core/frozen_sim.hpp).
using GroupTables = BasicGroupTables<std::uint32_t>;

/// The dynamic engine's instantiation: one immutable arena per
/// DamSystem::spawn_group batch, entries typed as ProcessId so DamNode's
/// span-based views read rows directly (see core/system.hpp).
using GroupViewArena = BasicGroupTables<ProcessId>;

class SuperTopicTable {
 public:
  SuperTopicTable(ProcessId owner, std::size_t z) : owner_(owner), z_(z) {}

  /// Which supergroup the entries belong to. Not necessarily the direct
  /// supertopic: if no process is interested in super(Ti), this is the
  /// first supertopic (walking up) with interested processes (footnote 4).
  [[nodiscard]] std::optional<TopicId> super_topic() const noexcept {
    return super_topic_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return z_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries().size(); }
  [[nodiscard]] bool empty() const noexcept { return entries().empty(); }
  [[nodiscard]] std::span<const ProcessId> entries() const noexcept {
    return shared_ ? base_ : std::span<const ProcessId>(entries_);
  }
  [[nodiscard]] bool contains(ProcessId p) const noexcept;

  /// Adopts an immutable arena row as the table's contents — the batch-
  /// spawn counterpart of merge() into an empty table, with no per-node
  /// copy. Precondition (guaranteed by the arena builder): `base` entries
  /// are distinct, exclude the owner, and number at most z. The row must
  /// outlive the table or its first mutation, whichever comes first.
  void seed(TopicId topic, std::span<const ProcessId> base);

  /// True while reads are still served by the shared arena row (no churn
  /// has touched this table yet).
  [[nodiscard]] bool shares_base() const noexcept { return shared_; }

  /// The arena row this table was seeded from (empty if none). Stays
  /// observable after the copy-on-churn materialization so overlay deltas
  /// can be diffed against the base.
  [[nodiscard]] std::span<const ProcessId> base() const noexcept {
    return base_;
  }

  /// MERGE (footnote 5): keep current entries that are still alive
  /// according to `alive`, then top up with `fresh` (skipping duplicates
  /// and the owner) up to capacity z. If `topic` differs from the current
  /// super topic, the table is re-targeted: a *lower* (deeper) topic in
  /// the hierarchy wins because it is closer to the direct supertopic —
  /// the caller resolves that policy and passes `replace = true` to wipe
  /// first. `alive` (here and below) is any callable ProcessId -> bool,
  /// taken by reference so probing builds no type-erased wrapper.
  template <typename Alive>
  void merge(TopicId topic, const std::vector<ProcessId>& fresh,
             const Alive& alive, bool replace = false);

  /// CHECK (footnote 7): number of entries currently alive per the probe.
  template <typename Alive>
  [[nodiscard]] std::size_t check(const Alive& alive) const {
    const auto current = entries();
    return static_cast<std::size_t>(
        std::count_if(current.begin(), current.end(),
                      [&](ProcessId p) { return alive(p); }));
  }

  /// Removes entries that fail the probe; returns how many were dropped.
  template <typename Alive>
  std::size_t drop_failed(const Alive& alive);

  void clear() noexcept {
    shared_ = false;
    entries_.clear();
    super_topic_.reset();
  }

 private:
  /// Copy-on-churn: the first mutation copies the shared base row into the
  /// owned overlay; every later operation behaves exactly like the
  /// historical owned-vector table.
  void materialize();

  ProcessId owner_;
  std::size_t z_;
  std::optional<TopicId> super_topic_;
  std::span<const ProcessId> base_{};  ///< shared arena row (may be stale
                                       ///< of entries_ once materialized)
  bool shared_ = false;                ///< reads served by base_
  std::vector<ProcessId> entries_;     ///< owned overlay
};

template <typename Alive>
void SuperTopicTable::merge(TopicId topic, const std::vector<ProcessId>& fresh,
                            const Alive& alive, bool replace) {
  materialize();
  if (replace || !super_topic_ || *super_topic_ != topic) {
    entries_.clear();
  }
  super_topic_ = topic;
  // Keep favorites: current entries that still pass the aliveness probe.
  std::erase_if(entries_, [&](ProcessId p) { return !alive(p); });
  for (ProcessId p : fresh) {
    if (entries_.size() >= z_) break;
    if (p == owner_ || contains(p)) continue;
    entries_.push_back(p);
  }
}

template <typename Alive>
std::size_t SuperTopicTable::drop_failed(const Alive& alive) {
  // Nothing failed -> nothing to drop; the shared base stays shared.
  if (check(alive) == size()) return 0;
  materialize();
  return std::erase_if(entries_, [&](ProcessId p) { return !alive(p); });
}

}  // namespace dam::core

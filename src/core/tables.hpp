// The membership tables of daMulticast processes (Sec. V-A.1, Fig. 3) and
// the flat CSR arena that backs the frozen engine's tables at scale.
//
//  * GroupTables — one group's membership rows packed into contiguous CSR
//    buffers of process indices (the frozen engine, core/frozen_sim). One
//    arena replaces S (or S×parents) little heap vectors.
//  * Topic table (Table^l_Ti)  — processes interested in the same topic;
//    populated and kept fresh by the underlying gossip membership. Size
//    (b+1)·ln(S). We wrap membership::PartialView.
//  * Supertopic table (sTable^l_Ti) — constant size z; holds processes of
//    the nearest non-empty supergroup. MERGE keeps "favorite" (still-alive)
//    entries and fills the rest with fresh ones (footnote 5); CHECK counts
//    alive entries via an aliveness probe (footnote 7: timeouts).
//
// In the dynamic engine each process's two tables own their rows and are
// mutated in place; DamSystem::spawn_group allocates them in id order.
// The table keeps no copy of its owner or of z: merge() reads both from
// the node's NodeContext.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/context.hpp"
#include "membership/view.hpp"
#include "topics/topic.hpp"
#include "util/rng.hpp"

namespace dam::core {

using membership::PartialView;
using topics::ProcessId;
using topics::TopicId;

/// Flat CSR membership arena for one group — the tables of every process,
/// packed into contiguous buffers instead of S (or S×parents) little heap
/// vectors. Entries are process indices within the group / parent group
/// (see core/frozen_sim.hpp):
///   * topic-table row of process i:
///       topic_entries[topic_offsets[i] .. topic_offsets[i+1])
///   * supertopic table of (process i, parent slot s):
///       super_entries[super_offsets[i*parent_count + s] ..
///                     super_offsets[i*parent_count + s + 1])
/// Peak memory is the O(S·k) arena itself; construction allocates nothing
/// per process.
struct GroupTables {
  std::size_t size = 0;
  std::size_t parent_count = 0;
  std::vector<std::uint32_t> topic_offsets;  ///< size + 1
  std::vector<std::uint32_t> topic_entries;
  std::vector<std::uint32_t> super_offsets;  ///< size * parent_count + 1
  std::vector<std::uint32_t> super_entries;

  [[nodiscard]] std::span<const std::uint32_t> topic_row(
      std::size_t process) const {
    return {topic_entries.data() + topic_offsets[process],
            topic_entries.data() + topic_offsets[process + 1]};
  }

  [[nodiscard]] std::span<const std::uint32_t> super_row(
      std::size_t process, std::size_t slot) const {
    const std::size_t row = process * parent_count + slot;
    return {super_entries.data() + super_offsets[row],
            super_entries.data() + super_offsets[row + 1]};
  }

  /// Bytes held by the four flat buffers (the membership footprint).
  [[nodiscard]] std::size_t arena_bytes() const noexcept {
    return (topic_offsets.capacity() + super_offsets.capacity() +
            topic_entries.capacity() + super_entries.capacity()) *
           sizeof(std::uint32_t);
  }
};

class SuperTopicTable {
 public:
  /// Which supergroup the entries belong to. Not necessarily the direct
  /// supertopic: if no process is interested in super(Ti), this is the
  /// first supertopic (walking up) with interested processes (footnote 4).
  [[nodiscard]] std::optional<TopicId> super_topic() const noexcept {
    if (!has_super_topic_) return std::nullopt;
    return super_topic_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::span<const ProcessId> entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] bool contains(ProcessId p) const noexcept {
    return std::find(entries_.begin(), entries_.end(), p) != entries_.end();
  }

  /// MERGE (footnote 5): keep current entries that are still alive
  /// according to `alive`, then top up with `fresh` (skipping duplicates
  /// and the owner, ctx.self) up to capacity z (ctx.config->params.z). If
  /// `topic` differs from the current super topic, the table is
  /// re-targeted: a *lower* (deeper) topic in the hierarchy wins because
  /// it is closer to the direct supertopic — the caller resolves that
  /// policy and passes `replace = true` to wipe first. `alive` (here and below) is any callable ProcessId -> bool,
  /// taken by reference so probing builds no type-erased wrapper.
  template <typename Alive>
  void merge(const NodeContext& ctx, TopicId topic,
             std::span<const ProcessId> fresh, const Alive& alive,
             bool replace = false);

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
    entries_.clear();
    has_super_topic_ = false;
  }

 private:
  // A topic and a flag instead of std::optional<TopicId> fit one 8-byte
  // word ahead of the row.
  TopicId super_topic_{};  ///< meaningful if has_super_topic_
  bool has_super_topic_ = false;
  std::vector<ProcessId> entries_;
};

template <typename Alive>
void SuperTopicTable::merge(const NodeContext& ctx, TopicId topic,
                            std::span<const ProcessId> fresh,
                            const Alive& alive, bool replace) {
  if (replace || !has_super_topic_ || super_topic_ != topic) {
    entries_.clear();
  }
  super_topic_ = topic;
  has_super_topic_ = true;
  // Keep favorites: current entries that still pass the aliveness probe.
  std::erase_if(entries_, [&](ProcessId p) { return !alive(p); });
  const std::size_t z = ctx.config->params.z;
  // At most z entries: one allocation, not a doubling, per row.
  entries_.reserve(std::min(z, entries_.size() + fresh.size()));
  for (ProcessId p : fresh) {
    if (entries_.size() >= z) break;
    if (p == ctx.self || contains(p)) continue;
    entries_.push_back(p);
  }
}

template <typename Alive>
std::size_t SuperTopicTable::drop_failed(const Alive& alive) {
  return std::erase_if(entries_, [&](ProcessId p) { return !alive(p); });
}

}  // namespace dam::core

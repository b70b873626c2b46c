// Topic DAG — multiple supertopics (multiple inheritance).
//
// The paper's conclusion: "Multiple supertopics (i.e., multiple
// inheritance) could be easily supported by ... adding a supertopic table
// for each supertopic. Neither would hamper the overall performance of the
// algorithm." This module provides the topic structure for that extension:
// a DAG where a topic may have several direct supertopics. The tree
// hierarchy (topics/hierarchy.hpp) remains the default of the dynamic
// engine; the frozen-table engine (core/frozen_sim.hpp) runs over a DAG,
// where a linear hierarchy is a path.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dam::topics {

/// Handle into a TopicDag (distinct from the tree's TopicId on purpose —
/// the two structures have different invariants).
struct DagTopicId {
  std::uint32_t value = 0;

  friend auto operator<=>(const DagTopicId&, const DagTopicId&) = default;
};

class TopicDag {
 public:
  /// Adds a topic with no supertopics yet. Names must be unique and
  /// non-empty. Returns its id.
  DagTopicId add_topic(std::string_view name);

  /// Declares `parent` a direct supertopic of `child`. Rejects duplicate
  /// edges, self-loops, and edges that would create a cycle (inclusion
  /// must stay a partial order), throwing std::invalid_argument.
  void add_super(DagTopicId child, DagTopicId parent);

  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }

  [[nodiscard]] const std::string& name(DagTopicId id) const {
    return names_.at(id.value);
  }

  [[nodiscard]] std::optional<DagTopicId> find(std::string_view name) const;

  /// Direct supertopics of `id` (may be empty: a "root" of the DAG).
  [[nodiscard]] const std::vector<DagTopicId>& supers(DagTopicId id) const {
    return supers_.at(id.value);
  }

  /// Direct subtopics.
  [[nodiscard]] const std::vector<DagTopicId>& subs(DagTopicId id) const {
    return subs_.at(id.value);
  }

  [[nodiscard]] bool is_root(DagTopicId id) const {
    return supers(id).empty();
  }

  /// True iff `a` includes `b`: a == b, or a is reachable from b by
  /// following supertopic edges. Events of b are also events of a.
  [[nodiscard]] bool includes(DagTopicId a, DagTopicId b) const;

  /// All topics that include `id` (its ancestor closure, id excluded),
  /// in BFS order from `id` upward, deduplicated.
  [[nodiscard]] std::vector<DagTopicId> ancestors(DagTopicId id) const;

  /// All interned ids in insertion order.
  [[nodiscard]] std::vector<DagTopicId> all() const;

  /// Length of the longest supertopic chain starting at `id` (0 for
  /// roots) — the DAG analogue of the paper's depth `t`.
  [[nodiscard]] std::size_t height(DagTopicId id) const;

 private:
  void check_id(DagTopicId id) const {
    if (id.value >= names_.size()) {
      throw std::out_of_range("TopicDag: unknown topic id");
    }
  }

  std::vector<std::string> names_;
  std::vector<std::vector<DagTopicId>> supers_;
  std::vector<std::vector<DagTopicId>> subs_;
  std::unordered_map<std::string, std::uint32_t> by_name_;
};

}  // namespace dam::topics

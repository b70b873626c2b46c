// The topic inclusion order — the one topic structure of both engines.
//
// Topics are ordered by inclusion (Section III-A): every event of a
// subtopic is also an event of each of its supertopics. The paper's
// conclusion adds: "Multiple supertopics (i.e., multiple inheritance)
// could be easily supported by ... adding a supertopic table for each
// supertopic. Neither would hamper the overall performance of the
// algorithm." So the structure is a DAG in which a topic may have several
// direct supertopics. The frozen-table engine (core/frozen_sim.hpp) runs
// over any DAG. The dynamic engine (core/system.hpp) keeps one supertopic
// table per process, so it runs over DAGs where no topic has more than one
// supertopic (require_tree); the paper's linear hierarchy is a path.
//
// Each topic caches its depth and its ancestor closure whenever an edge is
// added, so the queries the protocol asks per message — includes, depth,
// super, chain_to_root — allocate nothing and never recurse.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "topics/topic.hpp"

namespace dam::topics {

/// The frozen benchmark (perfbench/) still spells the topic handle by its
/// old name; the alias goes at the next change to the benchmark.
using DagTopicId = TopicId;

class TopicDag {
 public:
  /// Adds a topic with no supertopics yet. Names must be unique and
  /// non-empty. Returns its id: one past every id added before.
  TopicId add_topic(std::string_view name);

  /// Declares `parent` a direct supertopic of `child`. Rejects duplicate
  /// edges, self-loops, and edges that would create a cycle (inclusion
  /// must stay a partial order), throwing std::invalid_argument.
  void add_super(TopicId child, TopicId parent);

  [[nodiscard]] std::size_t size() const noexcept { return topics_.size(); }

  [[nodiscard]] const std::string& name(TopicId id) const {
    return topic(id).name;
  }

  [[nodiscard]] std::optional<TopicId> find(std::string_view name) const;

  /// Direct supertopics of `id` (may be empty: a "root" of the DAG).
  [[nodiscard]] const std::vector<TopicId>& supers(TopicId id) const {
    return topic(id).supers;
  }

  [[nodiscard]] bool is_root(TopicId id) const {
    return topic(id).supers.empty();
  }

  /// The unique direct supertopic. Throws std::logic_error unless `id`
  /// has exactly one (a root has none; a multi-parent topic has several).
  [[nodiscard]] TopicId super(TopicId id) const;

  /// Length of the longest supertopic chain starting at `id` (0 for
  /// roots) — the paper's depth.
  [[nodiscard]] std::size_t depth(TopicId id) const {
    return topic(id).depth;
  }

  /// `id` followed by every topic that includes it, each once, nearest
  /// first. In a tree: id, super(id), super(super(id)), ..., root — the
  /// widening schedule of the bootstrap task (Fig. 4, lines 19–27).
  /// Valid until the DAG next changes.
  [[nodiscard]] std::span<const TopicId> chain_to_root(TopicId id) const {
    return topic(id).closure;
  }

  /// True iff `a` includes `b`: a == b, or a is reachable from b by
  /// following supertopic edges. Events of b are also events of a.
  [[nodiscard]] bool includes(TopicId a, TopicId b) const {
    check(a);
    const std::vector<TopicId>& closure = topic(b).closure;
    return std::find(closure.begin(), closure.end(), a) != closure.end();
  }

 private:
  struct Topic {
    std::string name;
    std::vector<TopicId> supers;
    std::vector<TopicId> closure;  ///< self, then ancestors (BFS upward)
    std::size_t depth = 0;
  };

  void check(TopicId id) const {
    if (id.value >= topics_.size()) {
      throw std::out_of_range("TopicDag: unknown topic id");
    }
  }
  [[nodiscard]] const Topic& topic(TopicId id) const {
    check(id);
    return topics_[id.value];
  }

  std::vector<Topic> topics_;
  std::unordered_map<std::string, std::uint32_t> by_name_;
};

/// Throws std::invalid_argument, naming `caller`, if any topic has more
/// than one direct supertopic. The dynamic engine and the steady rivals
/// route along one supertopic per group, so they need this shape.
void require_tree(const TopicDag& dag, std::string_view caller);

/// Interns a dotted path such as ".news.eu": "." first, then each prefix
/// (".news", ".news.eu") as a topic whose one supertopic is the previous
/// prefix. Topics are named by their full path. Idempotent; returns the id
/// of the whole path. In an empty DAG "." gets kRootTopic. Throws
/// std::invalid_argument on a malformed path.
TopicId intern_path(TopicDag& dag, std::string_view path);

/// Builds a linear hierarchy ".", ".t1", ".t1.t2", ... with
/// `levels_below_root` topics under the root, returning ids indexed by
/// level (index 0 = root). Matches the paper's simulation setting where
/// each topic has exactly one subtopic.
std::vector<TopicId> make_linear_hierarchy(TopicDag& dag,
                                           std::size_t levels_below_root,
                                           std::string_view stem = "t");

}  // namespace dam::topics

#include "topics/dag.hpp"

namespace dam::topics {

TopicId TopicDag::add_topic(std::string_view name) {
  if (name.empty()) {
    throw std::invalid_argument("TopicDag: empty topic name");
  }
  if (by_name_.contains(std::string(name))) {
    throw std::invalid_argument("TopicDag: duplicate topic name '" +
                                std::string(name) + "'");
  }
  const auto id = TopicId{static_cast<std::uint32_t>(topics_.size())};
  topics_.push_back(Topic{std::string(name), {}, {id}, 0});
  by_name_.emplace(std::string(name), id.value);
  return id;
}

void TopicDag::add_super(TopicId child, TopicId parent) {
  check(child);
  check(parent);
  auto& parents = topics_[child.value].supers;
  if (child == parent) {
    throw std::invalid_argument("TopicDag: self-loop");
  }
  if (std::find(parents.begin(), parents.end(), parent) != parents.end()) {
    throw std::invalid_argument("TopicDag: duplicate supertopic edge");
  }
  // Cycle check: the edge child -> parent is illegal iff child is already
  // an ancestor of parent (i.e. child includes parent).
  if (includes(child, parent)) {
    throw std::invalid_argument("TopicDag: edge would create a cycle");
  }
  parents.push_back(parent);

  // Refresh the caches of `child` and of every topic below it (the old
  // closures still say who is below). A strict ancestor's closure is a
  // strict subset of its descendant's, so refreshing depths in order of
  // closure size settles every supertopic before its subtopics.
  std::vector<TopicId> below;
  for (std::uint32_t t = 0; t < topics_.size(); ++t) {
    if (includes(child, TopicId{t})) below.push_back(TopicId{t});
  }
  for (const TopicId t : below) {
    std::vector<TopicId>& closure = topics_[t.value].closure;
    closure.assign(1, t);
    for (std::size_t i = 0; i < closure.size(); ++i) {
      for (const TopicId up : topics_[closure[i].value].supers) {
        if (std::find(closure.begin(), closure.end(), up) == closure.end()) {
          closure.push_back(up);
        }
      }
    }
  }
  std::stable_sort(below.begin(), below.end(), [&](TopicId x, TopicId y) {
    return topics_[x.value].closure.size() < topics_[y.value].closure.size();
  });
  for (const TopicId t : below) {
    std::size_t depth = 0;
    for (const TopicId up : topics_[t.value].supers) {
      depth = std::max(depth, topics_[up.value].depth + 1);
    }
    topics_[t.value].depth = depth;
  }
}

std::optional<TopicId> TopicDag::find(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) return std::nullopt;
  return TopicId{it->second};
}

TopicId TopicDag::super(TopicId id) const {
  const std::vector<TopicId>& parents = topic(id).supers;
  if (parents.size() != 1) {
    throw std::logic_error("TopicDag::super: topic '" + topic(id).name +
                           "' has " + std::to_string(parents.size()) +
                           " supertopics, not one");
  }
  return parents.front();
}

void require_tree(const TopicDag& dag, std::string_view caller) {
  for (std::uint32_t t = 0; t < dag.size(); ++t) {
    if (dag.supers(TopicId{t}).size() > 1) {
      throw std::invalid_argument(
          std::string(caller) + ": topic '" + dag.name(TopicId{t}) +
          "' has multiple parents; the dynamic engine and the steady "
          "rivals need a tree (run DAG scenarios on the frozen engine)");
    }
  }
}

TopicId intern_path(TopicDag& dag, std::string_view path) {
  const std::optional<TopicPath> parsed = TopicPath::parse(path);
  if (!parsed) {
    throw std::invalid_argument("intern_path: bad topic path '" +
                                std::string(path) + "'");
  }
  const std::optional<TopicId> root = dag.find(".");
  TopicId id = root ? *root : dag.add_topic(".");
  std::string prefix;
  for (const std::string& segment : parsed->segments()) {
    prefix += '.';
    prefix += segment;
    if (const std::optional<TopicId> existing = dag.find(prefix)) {
      id = *existing;
      continue;
    }
    const TopicId child = dag.add_topic(prefix);
    dag.add_super(child, id);
    id = child;
  }
  return id;
}

std::vector<TopicId> make_linear_hierarchy(TopicDag& dag,
                                           std::size_t levels_below_root,
                                           std::string_view stem) {
  std::vector<TopicId> levels{intern_path(dag, ".")};
  levels.reserve(levels_below_root + 1);
  std::string path;
  for (std::size_t i = 1; i <= levels_below_root; ++i) {
    path += '.';
    path += stem;
    path += std::to_string(i);
    levels.push_back(intern_path(dag, path));
  }
  return levels;
}

}  // namespace dam::topics

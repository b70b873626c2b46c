#include "net/neighborhood.hpp"

#include <algorithm>
#include <deque>

namespace dam::net {

namespace {
void add_edge(std::vector<std::vector<ProcessId>>& adjacency, std::uint32_t a,
              std::uint32_t b) {
  auto& list_a = adjacency[a];
  if (std::find(list_a.begin(), list_a.end(), ProcessId{b}) == list_a.end()) {
    list_a.push_back(ProcessId{b});
  }
  auto& list_b = adjacency[b];
  if (std::find(list_b.begin(), list_b.end(), ProcessId{a}) == list_b.end()) {
    list_b.push_back(ProcessId{a});
  }
}
}  // namespace

Neighborhood Neighborhood::random(std::size_t process_count,
                                  std::size_t degree, util::Rng& rng) {
  std::vector<std::vector<ProcessId>> adjacency(process_count);
  if (process_count > 1) {
    const std::size_t want = std::min(degree, process_count - 1);
    for (std::uint32_t p = 0; p < process_count; ++p) {
      // Draw `want` distinct peers != p.
      std::size_t added = 0;
      std::size_t guard = 0;
      while (added < want && guard < 64 * want + 64) {
        ++guard;
        const auto q =
            static_cast<std::uint32_t>(rng.below(process_count - 1));
        const std::uint32_t peer = q >= p ? q + 1 : q;
        const auto before = adjacency[p].size();
        add_edge(adjacency, p, peer);
        if (adjacency[p].size() > before) ++added;
      }
    }
  }
  return Neighborhood(std::move(adjacency));
}

bool Neighborhood::connected() const {
  if (adjacency_.empty()) return true;
  std::vector<bool> seen(adjacency_.size(), false);
  std::deque<std::uint32_t> frontier{0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!frontier.empty()) {
    const std::uint32_t current = frontier.front();
    frontier.pop_front();
    for (ProcessId next : adjacency_[current]) {
      if (!seen[next.value]) {
        seen[next.value] = true;
        ++visited;
        frontier.push_back(next.value);
      }
    }
  }
  return visited == adjacency_.size();
}

ProcessId Neighborhood::add_process(std::size_t degree, util::Rng& rng) {
  const auto id = static_cast<std::uint32_t>(adjacency_.size());
  // Room for the process's own contacts and as many expected later ones
  // (each later joiner links to `degree` of the members before it), so the
  // list is allocated once instead of grown 1-2-4-8.
  adjacency_.emplace_back().reserve(2 * degree);
  if (id > 0) {
    const std::size_t want = std::min(degree, static_cast<std::size_t>(id));
    std::size_t added = 0;
    std::size_t guard = 0;
    while (added < want && guard < 64 * want + 64) {
      ++guard;
      const auto peer = static_cast<std::uint32_t>(rng.below(id));
      const auto before = adjacency_[id].size();
      add_edge(adjacency_, id, peer);
      if (adjacency_[id].size() > before) ++added;
    }
  }
  return ProcessId{id};
}

}  // namespace dam::net

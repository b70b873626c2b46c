// The rows a spawn batch gives its joiners (DamSystem::spawn_group): each
// joiner's topic-table and supertopic-table rows are sampled straight into
// the node's own storage, allocated in id order, and gossip mutates them
// in place. These tests pin
//   * the rows themselves: distinct join-time samples that exclude the
//     owner, as wide as min(view_capacity(n), n - 1) for the joiner's
//     join-time group size n;
//   * that they stay put: the topic row is reserved at the batch's final
//     width, so gossip without joins never moves either row;
//   * the logical byte gauge view_arena_bytes(), which keeps the CSR-arena
//     formula of the rows' initial widths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/system.hpp"
#include "topics/dag.hpp"

namespace dam::core {
namespace {

class SpawnRowsTest : public ::testing::Test {
 protected:
  SpawnRowsTest() { levels_ = topics::make_linear_hierarchy(hierarchy_, 1); }

  static DamSystem::Config wired_config() {
    DamSystem::Config config;
    config.seed = 5;
    config.auto_wire_super_tables = true;
    return config;
  }

  topics::TopicDag hierarchy_;
  std::vector<topics::TopicId> levels_;
};

TEST_F(SpawnRowsTest, RowsAreDistinctAndExcludeTheOwner) {
  DamSystem system(hierarchy_, wired_config());
  const auto roots = system.spawn_group(levels_[0], 6);
  const auto leaves = system.spawn_group(levels_[1], 300);
  for (const ProcessId leaf : leaves) {
    const DamNode& node = system.node(leaf);
    const auto view = node.group_membership().view().entries();
    std::unordered_set<ProcessId> seen;
    for (const ProcessId contact : view) {
      EXPECT_NE(contact, leaf);
      EXPECT_TRUE(seen.insert(contact).second) << "duplicate in " << leaf.value;
      EXPECT_TRUE(std::find(leaves.begin(), leaves.end(), contact) !=
                  leaves.end());
    }
    const auto super = node.super_table().entries();
    seen.clear();
    for (const ProcessId contact : super) {
      EXPECT_TRUE(seen.insert(contact).second) << "duplicate in " << leaf.value;
      EXPECT_TRUE(std::find(roots.begin(), roots.end(), contact) !=
                  roots.end());
    }
  }
}

TEST_F(SpawnRowsTest, WidthsFollowTheJoinTimeGroupSize) {
  DamSystem system(hierarchy_, wired_config());
  system.spawn_group(levels_[0], 6);
  const std::size_t initial = 20;
  system.spawn_group(levels_[1], initial);
  const auto batch = system.spawn_group(levels_[1], 200);
  const TopicParams params = NodeConfig{}.params;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const DamNode& node = system.node(batch[i]);
    EXPECT_EQ(node.group_membership().view().size(),
              std::min(params.view_capacity(initial + i + 1), initial + i))
        << "joiner " << i;
    EXPECT_EQ(node.super_table().size(), params.z);
    EXPECT_EQ(node.super_table().super_topic(), levels_[0]);
  }
}

TEST_F(SpawnRowsTest, GossipWithoutJoinsMutatesTheRowsInPlace) {
  DamSystem system(hierarchy_, wired_config());
  const auto roots = system.spawn_group(levels_[0], 40);
  const auto leaves = system.spawn_group(levels_[1], 400);
  std::vector<ProcessId> all(roots);
  all.insert(all.end(), leaves.begin(), leaves.end());

  struct Rows {
    const ProcessId* view;
    const ProcessId* super;
    std::vector<ProcessId> view_entries;
  };
  std::vector<Rows> before;
  for (const ProcessId p : all) {
    const DamNode& node = system.node(p);
    const auto view = node.group_membership().view().entries();
    before.push_back({view.data(), node.super_table().entries().data(),
                      {view.begin(), view.end()}});
  }
  system.run_rounds(16);

  std::size_t changed = 0;
  for (std::size_t k = 0; k < all.size(); ++k) {
    const DamNode& node = system.node(all[k]);
    const auto view = node.group_membership().view().entries();
    EXPECT_EQ(view.data(), before[k].view) << "view of " << all[k].value;
    EXPECT_EQ(node.super_table().entries().data(), before[k].super)
        << "super table of " << all[k].value;
    if (!std::equal(view.begin(), view.end(), before[k].view_entries.begin(),
                    before[k].view_entries.end())) {
      ++changed;
    }
  }
  // Gossip did rewrite the rows; it did so where they were.
  EXPECT_GT(changed * 2, all.size());
}

TEST_F(SpawnRowsTest, ArenaBytesKeepTheCsrFormula) {
  DamSystem system(hierarchy_, wired_config());
  EXPECT_EQ(system.view_arena_bytes(), 0u);
  const TopicParams params = NodeConfig{}.params;
  // Entries of the topic rows of a batch of `count` on `initial` members.
  const auto topic_entries = [&](std::size_t initial, std::size_t count) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < count; ++i) {
      total += std::min(params.view_capacity(initial + i + 1), initial + i);
    }
    return total;
  };
  constexpr std::size_t kWord = 4;
  system.spawn_group(levels_[0], 6);  // the root batch has no super rows
  const std::size_t roots = (6 + 1 + 1 + topic_entries(0, 6)) * kWord;
  EXPECT_EQ(system.view_arena_bytes(), roots);
  system.spawn_group(levels_[1], 30);
  const std::size_t leaves =
      (30 + 1 + 30 + 1 + topic_entries(0, 30) + 30 * params.z) * kWord;
  EXPECT_EQ(system.view_arena_bytes(), roots + leaves);
  system.spawn(levels_[1]);  // a single join adds no batch rows
  EXPECT_EQ(system.view_arena_bytes(), roots + leaves);
}

TEST_F(SpawnRowsTest, MidRunJoinerGetsRowsThroughTheSameSubscribe) {
  DamSystem system(hierarchy_, wired_config());
  system.spawn_group(levels_[0], 4);
  const auto batch = system.spawn_group(levels_[1], 20);
  const ProcessId joiner = system.spawn(levels_[1]);  // churn-trace join
  const auto view = system.node(joiner).group_membership().view().entries();
  EXPECT_EQ(view.size(), NodeConfig{}.params.view_capacity(21));
  for (const ProcessId contact : view) {
    EXPECT_TRUE(std::find(batch.begin(), batch.end(), contact) != batch.end());
  }
  EXPECT_EQ(system.node(joiner).super_table().size(), 3u);
}

}  // namespace
}  // namespace dam::core

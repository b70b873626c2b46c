// The spawn-batch view arena (core::GroupViewArena) behind DamNode:
// spawn_group samples every joiner's initial topic-table and supertopic
// rows into one immutable CSR arena and nodes read them through spans;
// churn lands in per-node copy-on-churn overlays. These tests pin
//   * the sharing itself (spans point INTO the arena, zero per-node copy),
//   * arena immutability under churn (overlay consulted, base untouched),
//   * the join/crash/recover story: a batch-spawned node that churns sees
//     its base-arena contacts plus its overlay deltas,
//   * content equivalence with the one-at-a-time spawn() path (same seed
//     => same tables), the unit-level face of the dynamic lane's
//     bit-identical-aggregates guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/system.hpp"
#include "net/message.hpp"
#include "sim/failure.hpp"
#include "topics/dag.hpp"

namespace dam::core {
namespace {

class ViewArenaTest : public ::testing::Test {
 protected:
  ViewArenaTest() { levels_ = topics::make_linear_hierarchy(hierarchy_, 1); }

  DamSystem::Config wired_config(std::uint64_t seed = 5) {
    DamSystem::Config config;
    config.seed = seed;
    config.auto_wire_super_tables = true;
    return config;
  }

  topics::TopicDag hierarchy_;
  std::vector<topics::TopicId> levels_;
};

TEST_F(ViewArenaTest, SpawnGroupWiresViewsIntoOneSharedArena) {
  DamSystem system(hierarchy_, wired_config());
  system.spawn_group(levels_[0], 6);
  const auto leaves = system.spawn_group(levels_[1], 30);
  ASSERT_EQ(system.view_arenas().size(), 2u);
  const GroupViewArena& arena = *system.view_arenas()[1];
  EXPECT_EQ(arena.size, 30u);
  EXPECT_EQ(arena.parent_count, 1u);
  EXPECT_GT(system.view_arena_bytes(), 0u);

  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const DamNode& node = system.node(leaves[i]);
    const auto& view = node.group_membership().view();
    EXPECT_TRUE(view.shares_base()) << "leaf " << i;
    // The span IS the arena row — same address, same contents, no copy.
    EXPECT_EQ(view.entries().data(), arena.topic_row(i).data());
    EXPECT_EQ(view.entries().size(), arena.topic_row(i).size());
    EXPECT_TRUE(node.super_table().shares_base());
    EXPECT_EQ(node.super_table().entries().data(),
              arena.super_row(i, 0).data());
  }
  // Rows grow with the group: later joiners sampled from more members.
  EXPECT_EQ(arena.topic_row(0).size(), 0u);  // first joiner knew nobody
  EXPECT_GT(arena.topic_row(29).size(), 5u);
}

TEST_F(ViewArenaTest, ChurnLandsInTheOverlayAndLeavesTheArenaIntact) {
  DamSystem system(hierarchy_, wired_config());
  system.spawn_group(levels_[0], 6);
  const auto leaves = system.spawn_group(levels_[1], 30);
  const GroupViewArena& arena = *system.view_arenas()[1];

  // A mid-batch joiner: its row is non-empty but below capacity.
  const std::size_t index = 12;
  DamNode& node = system.node(leaves[index]);
  const auto row = arena.topic_row(index);
  ASSERT_FALSE(row.empty());
  const std::vector<ProcessId> base_snapshot(row.begin(), row.end());

  // Churn: a membership exchange introduces a peer the base row lacks.
  ProcessId fresh{0};
  for (const ProcessId leaf : leaves) {
    if (leaf != leaves[index] && !node.group_membership().view().contains(leaf)) {
      fresh = leaf;
      break;
    }
  }
  ASSERT_NE(fresh, ProcessId{0});
  net::Message gossip;
  gossip.kind = net::MsgKind::kMembership;
  gossip.from = fresh;
  gossip.to = leaves[index];
  gossip.answer_topic = levels_[1];
  node.on_message(gossip);

  const auto& view = node.group_membership().view();
  EXPECT_FALSE(view.shares_base());
  EXPECT_TRUE(view.contains(fresh));
  // Base contacts survive in the overlay (the row was below capacity, so
  // nothing was evicted) — the node sees base plus delta.
  for (const ProcessId contact : base_snapshot) {
    EXPECT_TRUE(view.contains(contact));
  }
  // The arena row itself is bit-unchanged and still observable as base().
  ASSERT_EQ(row.size(), base_snapshot.size());
  EXPECT_TRUE(std::equal(row.begin(), row.end(), base_snapshot.begin()));
  EXPECT_EQ(view.base().data(), row.data());
  EXPECT_FALSE(std::find(row.begin(), row.end(), fresh) != row.end());

  // Mutation check — reads must consult the overlay, not the arena: evict
  // a base contact and the view forgets it while the arena still lists it.
  const ProcessId evicted = base_snapshot.front();
  DamNode& mutable_node = system.node(leaves[index]);
  // Route the eviction through the membership substrate, the same call a
  // failure-detection hook would make.
  const_cast<membership::FlatMembership&>(mutable_node.group_membership())
      .evict(evicted);
  EXPECT_FALSE(mutable_node.group_membership().view().contains(evicted));
  EXPECT_TRUE(std::find(row.begin(), row.end(), evicted) != row.end());
}

TEST_F(ViewArenaTest, CrashedAndRecoveredNodeKeepsBasePlusOverlay) {
  // The satellite scenario spelled out: a node joins (batch-spawned, arena
  // row), churns (crashes and recovers while a base contact dies), and
  // must end up seeing base-arena contacts plus overlay deltas.
  auto config = wired_config(9);
  DamSystem system(hierarchy_, config);
  system.spawn_group(levels_[0], 6);
  const auto leaves = system.spawn_group(levels_[1], 30);
  const GroupViewArena& arena = *system.view_arenas()[1];
  const std::size_t index = 12;
  const ProcessId self = leaves[index];
  const auto row = arena.topic_row(index);
  ASSERT_FALSE(row.empty());
  const std::vector<ProcessId> base_snapshot(row.begin(), row.end());

  auto failures = std::make_unique<sim::ChurnFailures>(system.process_count());
  failures->add_downtime(self, {1, 3});  // crash at round 1, recover at 3
  system.set_failure_model(std::move(failures));
  system.run_rounds(8);  // gossip across the outage

  const DamNode& node = system.node(self);
  const auto& view = node.group_membership().view();
  // Gossip merged at least one new peer, so the overlay materialized...
  EXPECT_FALSE(view.shares_base());
  // ...and every entry is either a base contact or an overlay delta the
  // arena never saw; both kinds must be present after recovery.
  std::size_t from_base = 0;
  std::size_t from_overlay = 0;
  for (const ProcessId entry : view.entries()) {
    const bool in_base = std::find(base_snapshot.begin(), base_snapshot.end(),
                                   entry) != base_snapshot.end();
    ++(in_base ? from_base : from_overlay);
  }
  EXPECT_GT(from_base, 0u);
  EXPECT_GT(from_overlay, 0u);
  // The arena row never changed underneath it.
  ASSERT_EQ(row.size(), base_snapshot.size());
  EXPECT_TRUE(std::equal(row.begin(), row.end(), base_snapshot.begin()));
}

TEST_F(ViewArenaTest, MidRunJoinersGetOwnedViewsBesideArenaBackedPeers) {
  DamSystem system(hierarchy_, wired_config());
  system.spawn_group(levels_[0], 4);
  const auto batch = system.spawn_group(levels_[1], 20);
  const ProcessId joiner = system.spawn(levels_[1]);  // churn-trace join
  EXPECT_FALSE(system.node(joiner).group_membership().view().shares_base());
  EXPECT_FALSE(system.node(joiner).group_membership().view().empty());
  EXPECT_TRUE(system.node(batch[10]).group_membership().view().shares_base());
  // One arena per batch; the single spawn adds none.
  EXPECT_EQ(system.view_arenas().size(), 2u);
}

}  // namespace
}  // namespace dam::core

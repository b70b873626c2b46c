// Thread-count-independence contract of the spawn-batch fill
// (DamSystem::Config::threads): joiner i draws its rows from its own
// stream forked from (batch, i), so every node's rows — and everything
// downstream of them — must be BIT-IDENTICAL for every threads value. The batch sizes
// below force several kSpawnChunk tasks (count > 512), so the chunked
// parallel path really runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "core/system.hpp"
#include "topics/dag.hpp"

namespace dam::core {
namespace {

class SystemParallelTest : public ::testing::Test {
 protected:
  SystemParallelTest() {
    levels_ = topics::make_linear_hierarchy(hierarchy_, 1);
  }

  DamSystem::Config config_for(unsigned threads) {
    DamSystem::Config config;
    config.seed = 0x5EED7;
    config.auto_wire_super_tables = true;
    config.threads = threads;
    return config;
  }

  topics::TopicDag hierarchy_;
  std::vector<topics::TopicId> levels_;
};

void expect_same_rows(const DamSystem& a, const DamSystem& b,
                      unsigned threads) {
  ASSERT_EQ(a.process_count(), b.process_count());
  for (std::uint32_t p = 0; p < a.process_count(); ++p) {
    const DamNode& lhs = a.node(ProcessId{p});
    const DamNode& rhs = b.node(ProcessId{p});
    const auto lhs_view = lhs.group_membership().view().entries();
    const auto rhs_view = rhs.group_membership().view().entries();
    EXPECT_TRUE(std::equal(lhs_view.begin(), lhs_view.end(),
                           rhs_view.begin(), rhs_view.end()))
        << "view of " << p << " threads=" << threads;
    const auto lhs_super = lhs.super_table().entries();
    const auto rhs_super = rhs.super_table().entries();
    EXPECT_TRUE(std::equal(lhs_super.begin(), lhs_super.end(),
                           rhs_super.begin(), rhs_super.end()))
        << "super table of " << p << " threads=" << threads;
    EXPECT_EQ(lhs.super_table().super_topic(), rhs.super_table().super_topic())
        << "process " << p << " threads=" << threads;
  }
  EXPECT_EQ(a.view_arena_bytes(), b.view_arena_bytes());
}

TEST_F(SystemParallelTest, RowsAreBitIdenticalForAnyThreadCount) {
  DamSystem reference(hierarchy_, config_for(1));
  reference.spawn_group(levels_[0], 40);
  reference.spawn_group(levels_[1], 1500);  // > kSpawnChunk: several tasks
  for (const unsigned threads : {2u, 4u, 8u}) {
    DamSystem system(hierarchy_, config_for(threads));
    system.spawn_group(levels_[0], 40);
    system.spawn_group(levels_[1], 1500);
    expect_same_rows(reference, system, threads);
  }
}

TEST_F(SystemParallelTest, DisseminationAfterSpawnIsAlsoIndependent) {
  // The fill only forks the system RNG, so the post-spawn engine state
  // (transport stream, node streams) — and with it a full publication —
  // must not depend on the worker count either.
  auto run = [&](unsigned threads) {
    DamSystem system(hierarchy_, config_for(threads));
    system.spawn_group(levels_[0], 20);
    const auto leaves = system.spawn_group(levels_[1], 700);
    system.run_rounds(3);  // let membership gossip warm up
    const auto event = system.publish(leaves[3]);
    system.run_rounds(30);
    const auto totals = system.metrics().timeline().totals();
    return std::pair{system.delivered_set(event).size(),
                     totals.event_sends + totals.inter_sends};
  };
  const auto reference = run(1);
  EXPECT_GT(reference.first, 600u);  // the publication actually spread
  for (const unsigned threads : {2u, 8u}) {
    EXPECT_EQ(run(threads), reference) << "threads=" << threads;
  }
}

TEST_F(SystemParallelTest, RowsAreValidJoinTimeSamples) {
  // Joiner i's topic row must hold DISTINCT members that joined before it,
  // never itself, and exactly fill the precomputed width.
  DamSystem system(hierarchy_, config_for(4));
  const auto initial = system.spawn_group(levels_[1], 30);
  const auto batch = system.spawn_group(levels_[1], 600);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto row = system.node(batch[i]).group_membership().view().entries();
    std::unordered_set<ProcessId> seen;
    for (const ProcessId contact : row) {
      EXPECT_NE(contact, batch[i]) << "joiner " << i << " sampled itself";
      EXPECT_TRUE(seen.insert(contact).second)
          << "duplicate contact for joiner " << i;
      // Joined strictly before: an initial member or an earlier joiner.
      const bool is_initial =
          std::find(initial.begin(), initial.end(), contact) != initial.end();
      const auto in_batch = std::find(batch.begin(), batch.end(), contact);
      EXPECT_TRUE(is_initial ||
                  (in_batch != batch.end() &&
                   static_cast<std::size_t>(in_batch - batch.begin()) < i))
          << "joiner " << i << " sampled a later joiner";
    }
  }
}

}  // namespace
}  // namespace dam::core

// Thread-count-independence contract of the spawn-batch fill
// (DamSystem::Config::threads): joiner i draws its arena rows from its own
// stream forked from (batch, i), so the arenas — and everything downstream
// of them — must be BIT-IDENTICAL for every threads value. The batch sizes
// below force several kSpawnChunk tasks (count > 512), so the chunked
// parallel path really runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "core/system.hpp"
#include "topics/hierarchy.hpp"

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

  topics::TopicHierarchy hierarchy_;
  std::vector<topics::TopicId> levels_;
};

void expect_same_arenas(const DamSystem& a, const DamSystem& b,
                        unsigned threads) {
  ASSERT_EQ(a.view_arenas().size(), b.view_arenas().size());
  for (std::size_t batch = 0; batch < a.view_arenas().size(); ++batch) {
    const GroupViewArena& lhs = *a.view_arenas()[batch];
    const GroupViewArena& rhs = *b.view_arenas()[batch];
    EXPECT_EQ(lhs.topic_offsets, rhs.topic_offsets)
        << "batch " << batch << " threads=" << threads;
    EXPECT_EQ(lhs.topic_entries, rhs.topic_entries)
        << "batch " << batch << " threads=" << threads;
    EXPECT_EQ(lhs.super_offsets, rhs.super_offsets)
        << "batch " << batch << " threads=" << threads;
    EXPECT_EQ(lhs.super_entries, rhs.super_entries)
        << "batch " << batch << " threads=" << threads;
  }
}

TEST_F(SystemParallelTest, ArenasAreBitIdenticalForAnyThreadCount) {
  DamSystem reference(hierarchy_, config_for(1));
  reference.spawn_group(levels_[0], 40);
  reference.spawn_group(levels_[1], 1500);  // > kSpawnChunk: several tasks
  for (const unsigned threads : {2u, 4u, 8u}) {
    DamSystem system(hierarchy_, config_for(threads));
    system.spawn_group(levels_[0], 40);
    system.spawn_group(levels_[1], 1500);
    expect_same_arenas(reference, system, threads);
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
    return std::pair{system.delivered_set(event).size(),
                     system.metrics().total_event_messages()};
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
  const GroupViewArena& arena = *system.view_arenas()[1];
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto row = arena.topic_row(i);
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

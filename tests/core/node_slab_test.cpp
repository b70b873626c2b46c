// DamSystem keeps its nodes in a slab of fixed-size chunks: a join appends
// in place and no node ever moves. These tests grow the slab across chunk
// boundaries — by batch, then by mid-run joins — and check that references
// taken before the growth still name the same nodes. The sanitizer build
// runs them too, so a leaked chunk or a node destroyed twice fails there.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/system.hpp"
#include "topics/dag.hpp"

namespace dam::core {
namespace {

constexpr std::size_t kChunk = DamSystem::kNodesPerChunk;

class NodeSlabTest : public ::testing::Test {
 protected:
  NodeSlabTest() {
    levels_ = topics::make_linear_hierarchy(hierarchy_, 1);
    config_.seed = 5;
    config_.auto_wire_super_tables = true;
  }

  topics::TopicDag hierarchy_;
  std::vector<topics::TopicId> levels_;
  DamSystem::Config config_;
};

TEST_F(NodeSlabTest, ReferencesSurviveJoinsPastTheNextChunkBoundary) {
  DamSystem system(hierarchy_, config_);
  system.spawn_group(levels_[0], 20);
  system.spawn_group(levels_[1], 1500);  // spans two chunks
  ASSERT_GT(system.process_count(), kChunk);

  std::vector<const DamNode*> before;
  for (std::uint32_t p = 0; p < system.process_count(); ++p) {
    before.push_back(&system.node(ProcessId{p}));
  }
  const DamNode& last = system.node(ProcessId{
      static_cast<std::uint32_t>(system.process_count() - 1)});
  system.run_rounds(2);

  // Mid-run joins, one at a time, until the slab needs its third chunk.
  const std::size_t boundary = 2 * kChunk;
  ASSERT_LT(system.process_count(), boundary);
  std::vector<ProcessId> joiners;
  while (system.process_count() <= boundary) {
    joiners.push_back(system.spawn(levels_[1]));
    if (joiners.size() % 128 == 0) system.run_rounds(1);
  }
  system.run_rounds(2);

  for (std::uint32_t p = 0; p < before.size(); ++p) {
    EXPECT_EQ(&system.node(ProcessId{p}), before[p]) << "process " << p;
  }
  EXPECT_EQ(&last, before.back());
  EXPECT_EQ(last.self().value, before.size() - 1);
  for (std::uint32_t p = 0; p < system.process_count(); ++p) {
    ASSERT_EQ(system.node(ProcessId{p}).self(), ProcessId{p});
  }
  // The joiners took part: each holds a view of its group.
  for (const ProcessId joiner : joiners) {
    EXPECT_GT(system.node(joiner).memory_footprint(), 0u);
  }
}

TEST_F(NodeSlabTest, NodesOfOneChunkAreContiguous) {
  DamSystem system(hierarchy_, config_);
  system.spawn_group(levels_[0], 10);
  system.spawn_group(levels_[1], kChunk + 10);
  for (std::uint32_t p = 0; p + 1 < system.process_count(); ++p) {
    if ((p + 1) % kChunk == 0) continue;  // the next node opens a chunk
    EXPECT_EQ(&system.node(ProcessId{p + 1}), &system.node(ProcessId{p}) + 1);
  }
}

TEST_F(NodeSlabTest, ProcessPastTheLastThrows) {
  DamSystem system(hierarchy_, config_);
  EXPECT_THROW((void)system.node(ProcessId{0}), std::out_of_range);
  system.spawn_group(levels_[0], 3);
  system.spawn_group(levels_[1], kChunk);
  const ProcessId past{static_cast<std::uint32_t>(system.process_count())};
  EXPECT_THROW((void)system.node(past), std::out_of_range);
  const DamSystem& view = system;
  EXPECT_THROW((void)view.node(past), std::out_of_range);
  EXPECT_NO_THROW((void)view.node(ProcessId{past.value - 1}));
}

}  // namespace
}  // namespace dam::core

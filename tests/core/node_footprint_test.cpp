// Per-process heap footprint of DamNode and its view overlays.
//
// A counting global operator new (this binary only) checks that a node
// which merely holds its arena-backed views allocates nothing, that the
// optional extensions allocate only once used, and that a view overlay is
// sized to its capacity instead of doubling past it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "core/node.hpp"
#include "fake_env.hpp"
#include "membership/view.hpp"
#include "topics/dag.hpp"

namespace {

bool g_counting = false;
std::size_t g_allocations = 0;
std::size_t g_largest = 0;

void* counted_alloc(std::size_t size) {
  if (g_counting) {
    ++g_allocations;
    if (size > g_largest) g_largest = size;
  }
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

/// Counts the allocations made while it is in scope.
class AllocationCounter {
 public:
  AllocationCounter() {
    g_allocations = 0;
    g_largest = 0;
    g_counting = true;
  }
  ~AllocationCounter() { g_counting = false; }
  AllocationCounter(const AllocationCounter&) = delete;
  AllocationCounter& operator=(const AllocationCounter&) = delete;

  [[nodiscard]] std::size_t allocations() const { return g_allocations; }
  [[nodiscard]] std::size_t largest() const { return g_largest; }
};

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }

namespace dam::core {
namespace {

using membership::PartialView;
using testing::FakeEnv;

class NodeFootprintTest : public ::testing::Test {
 protected:
  NodeFootprintTest() {
    levels_ = topics::make_linear_hierarchy(hierarchy_, 2);
    // An arena row: min(view capacity, members before the joiner) = 13.
    for (std::uint32_t i = 1; i <= 13; ++i) group_row_.push_back(ProcessId{i});
    super_row_ = {ProcessId{50}, ProcessId{51}, ProcessId{52}};
    env_.group_sizes[levels_[2].value] = 21;
  }

  static std::shared_ptr<const NodeConfig> config(bool recovery) {
    NodeConfig config;
    config.recovery.enabled = recovery;
    return std::make_shared<const NodeConfig>(config);
  }

  /// Builds a bottom-topic node on `shared` and subscribes it to the
  /// arena-style rows; returns the allocations this made.
  std::size_t spawn_allocations(std::shared_ptr<const NodeConfig> shared) {
    const AllocationCounter counter;
    DamNode node(ProcessId{0}, levels_[2], &hierarchy_, shared, 21,
                 util::Rng(7), &env_);
    node.subscribe_shared(group_row_, super_row_, levels_[1]);
    return counter.allocations();
  }

  topics::TopicDag hierarchy_;
  std::vector<topics::TopicId> levels_;
  std::vector<ProcessId> group_row_;
  std::vector<ProcessId> super_row_;
  FakeEnv env_;
};

TEST_F(NodeFootprintTest, SharedConfigArenaNodeAllocatesNothing) {
  EXPECT_EQ(spawn_allocations(config(false)), 0u);
}

TEST_F(NodeFootprintTest, RecoveryStateIsAllocatedOnlyWhenEnabled) {
  EXPECT_GT(spawn_allocations(config(true)), 0u);
}

TEST_F(NodeFootprintTest, FloodDedupSetIsAllocatedAtTheFirstFlood) {
  DamNode node(ProcessId{0}, levels_[2], &hierarchy_, config(false), 21,
               util::Rng(7), &env_);
  node.subscribe_shared(group_row_, super_row_, levels_[1]);
  EXPECT_EQ(node.request_set_size(), 0u);
  Message req;
  req.kind = MsgKind::kReqContact;
  req.from = ProcessId{9};
  req.to = ProcessId{0};
  req.origin = ProcessId{9};
  req.request_id = 1;
  req.ttl = 3;
  req.init_msg = {levels_[1]};
  node.on_message(req);
  EXPECT_EQ(node.request_set_size(), 1u);
  node.on_message(req);  // the same flood again: deduplicated
  EXPECT_EQ(node.request_set_size(), 1u);
}

TEST(ViewFootprint, GrownOverlayIsSizedToItsCapacity) {
  std::vector<ProcessId> row;
  for (std::uint32_t i = 1; i <= 44; ++i) row.push_back(ProcessId{i});
  PartialView view(ProcessId{0}, 44);
  view.seed(row);
  util::Rng rng(3);
  std::size_t largest = 0;
  {
    const AllocationCounter counter;
    // A full view: the insert evicts, which materializes the overlay.
    ASSERT_TRUE(view.insert(ProcessId{100}, rng));
    view.set_capacity(47, rng);
    for (std::uint32_t i = 101; !view.full(); ++i) {
      ASSERT_TRUE(view.insert(ProcessId{i}, rng));
    }
    largest = counter.largest();
  }
  EXPECT_FALSE(view.shares_base());
  EXPECT_EQ(view.size(), 47u);
  EXPECT_LE(largest, 47 * sizeof(ProcessId));
}

TEST(ViewFootprint, FillLimitCapsTheReservation) {
  // A group of 6 members has view capacity ceil(4·ln 6) = 8 but fills at
  // most 5 slots: one block of 5, not a doubling 1-2-4-8 nor a block of 8.
  PartialView view(ProcessId{0}, 8);
  view.set_fill_limit(5);
  util::Rng rng(3);
  std::size_t allocations = 0;
  std::size_t largest = 0;
  {
    const AllocationCounter counter;
    for (std::uint32_t i = 1; i <= 5; ++i) view.insert(ProcessId{i}, rng);
    allocations = counter.allocations();
    largest = counter.largest();
  }
  EXPECT_EQ(view.size(), 5u);
  EXPECT_EQ(allocations, 1u);
  EXPECT_EQ(largest, 5 * sizeof(ProcessId));
}

TEST(NodeFootprint, DamNodeObjectSize) {
  EXPECT_LE(sizeof(DamNode), 416u);
}

}  // namespace
}  // namespace dam::core

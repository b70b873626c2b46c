// Per-process heap footprint of DamNode and its table rows.
//
// A counting global operator new (this binary only) checks that a node
// which merely holds its tables allocates their two rows and nothing
// else, that the optional extensions allocate only once used, that a
// view row is sized to its capacity instead of doubling past it, that a
// batch-spawned node merges its first gossip without allocating, that an
// event wave stores its payload once rather than once per send, and that
// membership gossip draws its targets and shuffles without allocating.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "core/node.hpp"
#include "core/system.hpp"
#include "context_fixture.hpp"
#include "membership/flat_membership.hpp"
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
// The nothrow forms too (std::stable_sort's buffer uses them), so every
// block the deletes below free came from malloc.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }

namespace dam::core {
namespace {

using membership::PartialView;
using testing::OwnedMessage;

class NodeFootprintTest : public testing::ContextTest {
 protected:
  NodeFootprintTest() : ContextTest(2) {
    // A join-time row: min(view capacity, members before the joiner) = 13.
    for (std::uint32_t i = 1; i <= 13; ++i) group_row_.push_back(ProcessId{i});
    super_row_ = {ProcessId{50}, ProcessId{51}, ProcessId{52}};
    env_.group_sizes[levels_[2].value] = 21;
  }

  /// A bottom-topic node's context, with recovery on or off.
  NodeContext node_context(bool recovery) {
    NodeConfig config;
    config.recovery.enabled = recovery;
    return context(ProcessId{0}, levels_[2], config);
  }

  /// Builds a bottom-topic node and subscribes it to the rows; returns the
  /// allocations this made.
  std::size_t spawn_allocations(bool recovery) {
    const NodeContext ctx = node_context(recovery);
    const AllocationCounter counter;
    DamNode node(ctx, 21, util::Rng(7));
    node.subscribe(group_row_, super_row_, levels_[1]);
    return counter.allocations();
  }

  std::vector<ProcessId> group_row_;
  std::vector<ProcessId> super_row_;
};

TEST_F(NodeFootprintTest, SharedConfigNodeAllocatesOnlyItsTwoRows) {
  // One block for the topic-table row and one for the supertopic row.
  EXPECT_EQ(spawn_allocations(false), 2u);
}

TEST_F(NodeFootprintTest, RecoveryStateIsAllocatedOnlyWhenEnabled) {
  EXPECT_GT(spawn_allocations(true), 2u);
}

TEST_F(NodeFootprintTest, FloodDedupSetIsAllocatedAtTheFirstFlood) {
  DamNode node(node_context(false), 21, util::Rng(7));
  node.subscribe(group_row_, super_row_, levels_[1]);
  EXPECT_EQ(node.request_set_size(), 0u);
  OwnedMessage req;
  req.kind = MsgKind::kReqContact;
  req.from = ProcessId{9};
  req.to = ProcessId{0};
  req.origin = ProcessId{9};
  req.request_id = 1;
  req.ttl = 3;
  req.init_msg = {levels_[1]};
  node.on_message(req.view());
  EXPECT_EQ(node.request_set_size(), 1u);
  node.on_message(req.view());  // the same flood again: deduplicated
  EXPECT_EQ(node.request_set_size(), 1u);
}

TEST(ViewFootprint, GrownRowIsSizedToItsCapacity) {
  std::vector<ProcessId> row;
  for (std::uint32_t i = 1; i <= 44; ++i) row.push_back(ProcessId{i});
  PartialView view(ProcessId{0}, 44);
  util::Rng rng(3);
  view.insert_distinct(row, rng);
  std::size_t largest = 0;
  {
    const AllocationCounter counter;
    // A full view: the insert evicts in place.
    ASSERT_TRUE(view.insert(ProcessId{100}, rng));
    view.set_capacity(47, rng);
    for (std::uint32_t i = 101; !view.full(); ++i) {
      ASSERT_TRUE(view.insert(ProcessId{i}, rng));
    }
    largest = counter.largest();
  }
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

/// Allocations made by the 40 rounds after publishing `payload` at the
/// bottom of a 100/1,000/5,000 chain (gossip and maintenance included);
/// also returns the event sends, so a test can tell the wave was not
/// empty.
std::pair<std::size_t, std::uint64_t> wave_allocations(
    std::vector<std::uint8_t> payload) {
  topics::TopicDag hierarchy;
  const auto levels = topics::make_linear_hierarchy(hierarchy, 2);
  DamSystem::Config config;
  config.seed = 11;
  config.auto_wire_super_tables = true;
  DamSystem system(hierarchy, config);
  system.spawn_group(levels[0], 100);
  system.spawn_group(levels[1], 1000);
  const auto bottom = system.spawn_group(levels[2], 5000);
  const AllocationCounter counter;
  system.publish(bottom.back(), std::move(payload));  // a full view
  system.run_rounds(40);
  const util::Timeline::Counters totals =
      system.metrics().timeline().totals();
  return {counter.allocations(), totals.event_sends + totals.inter_sends};
}

TEST(EventWave, PayloadIsNotCopiedPerSend) {
  // Same seed, same rounds: only the payload differs. The transport interns
  // the body once per publication and every forwarded copy carries its
  // handle, so the payload costs one allocation, not one per send. A
  // first run grows the thread-local gossip draw buffers.
  (void)wave_allocations({});
  const auto [empty, empty_sends] = wave_allocations({});
  const auto [carried, carried_sends] =
      wave_allocations(std::vector<std::uint8_t>(64, 0x5A));
  EXPECT_EQ(empty_sends, carried_sends);
  EXPECT_GT(carried_sends, 10'000u);
  const std::size_t difference =
      carried > empty ? carried - empty : empty - carried;
  EXPECT_LE(difference, 2u);
}

TEST_F(NodeFootprintTest, WarmMembershipRoundAllocatesNothing) {
  // The target and shuffle draws used to allocate a vector each.
  const NodeContext ctx = context(ProcessId{0}, levels_[1]);
  membership::FlatMembership member(ctx, 1000, util::Rng(3));
  std::vector<ProcessId> contacts;
  for (std::uint32_t i = 1; i <= 40; ++i) contacts.push_back(ProcessId{i});
  member.join(contacts);
  std::size_t sends = 0;
  env_.on_send = [&](const Message& msg) {
    EXPECT_EQ(msg.processes.size(), 8u);  // the shuffle size
    ++sends;
  };
  member.round(ctx, {}, std::nullopt);  // grows the draw buffers
  std::size_t allocations = 0;
  {
    const AllocationCounter counter;
    for (int round = 1; round <= 100; ++round) {
      member.round(ctx, {}, std::nullopt);
    }
    allocations = counter.allocations();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(sends, 101u);  // one exchange per round
}

TEST(SpawnedNode, FirstMembershipReceptionAllocatesNothing) {
  // spawn_group reserves every topic row at the batch's final width, so a
  // mid-batch joiner's first merge grows its row in place; its supertopic
  // row is already z wide.
  topics::TopicDag hierarchy;
  const auto levels = topics::make_linear_hierarchy(hierarchy, 1);
  DamSystem::Config config;
  config.seed = 17;
  config.auto_wire_super_tables = true;
  DamSystem system(hierarchy, config);
  const auto roots = system.spawn_group(levels[0], 50);
  const auto leaves = system.spawn_group(levels[1], 500);
  DamNode& node = system.node(leaves[20]);
  const auto& view = node.group_membership().view();
  std::vector<ProcessId> fresh;
  for (const ProcessId leaf : leaves) {
    if (leaf != node.self() && !view.contains(leaf)) fresh.push_back(leaf);
    if (fresh.size() == 9) break;
  }
  ASSERT_EQ(fresh.size(), 9u);
  OwnedMessage gossip;
  gossip.kind = MsgKind::kMembership;
  gossip.from = fresh.back();
  gossip.to = node.self();
  gossip.answer_topic = levels[1];
  gossip.processes.assign(fresh.begin(), fresh.end() - 1);
  gossip.piggyback_topic = levels[0];
  gossip.piggyback_super_table = {roots[0], roots[1], roots[2]};
  const Message message = gossip.view();
  const std::size_t before = view.size();
  std::size_t allocations = 0;
  {
    const AllocationCounter counter;
    node.on_message(message);
    allocations = counter.allocations();
  }
  EXPECT_EQ(view.size(), before + 9);
  EXPECT_EQ(allocations, 0u);
}

TEST(MembershipRound, GossipSendsDoNotAllocate) {
  // 10 rounds of a warmed-up 100/2,000 chain, mostly gossip: 2.00
  // allocations per membership send before the draws were buffered. What
  // is left are per-round and maintenance costs (queue slabs, table-repair
  // draws).
  topics::TopicDag hierarchy;
  const auto levels = topics::make_linear_hierarchy(hierarchy, 1);
  DamSystem::Config config;
  config.seed = 13;
  config.auto_wire_super_tables = true;
  DamSystem system(hierarchy, config);
  system.spawn_group(levels[0], 100);
  system.spawn_group(levels[1], 2000);
  system.run_rounds(10);
  const std::uint64_t sent_before = system.transport().stats().sent;
  std::size_t allocations = 0;
  {
    const AllocationCounter counter;
    system.run_rounds(10);
    allocations = counter.allocations();
  }
  const std::uint64_t sends = system.transport().stats().sent - sent_before;
  EXPECT_GT(sends, 20'000u);
  EXPECT_LT(allocations * 50, sends);
}

TEST(NodeFootprint, DamNodeObjectSize) {
  // 256 B on LP64: four cache lines. Each table holds one row vector,
  // and the components keep no copy of the identity, config or host
  // their node holds.
  EXPECT_LE(sizeof(DamNode), 256u);
}

}  // namespace
}  // namespace dam::core

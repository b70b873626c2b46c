// Scaling-law checks: measured message counts against the O(S·ln S)
// analysis (Sec. VI-B) and measured memory against ln(S)+c+z (Sec. VI-C),
// swept over group sizes with parameterized gtest.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/formulas.hpp"
#include "baselines/broadcast.hpp"
#include "baselines/multicast.hpp"
#include "core/frozen_sim.hpp"
#include "core/system.hpp"
#include "frozen_chain.hpp"
#include "topics/hierarchy.hpp"

namespace dam::core {
namespace {

class GroupSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GroupSizeSweep, IntraMessagesTrackSLnS) {
  const std::size_t S = GetParam();
  const testing::Chain group({S});
  FrozenSimConfig config = group.config(S);
  double measured = 0.0;
  constexpr int kRuns = 10;
  for (int run = 0; run < kRuns; ++run) {
    config.seed = S + static_cast<std::uint64_t>(run) * 1000;
    measured += static_cast<double>(
        run_frozen_simulation(config).groups[0].intra_sent);
  }
  measured /= kRuns;
  const TopicParams params;
  const double predicted =
      static_cast<double>(S) * static_cast<double>(params.fanout(S));
  // Everybody infected sends one fanout burst; losses only trim the tail.
  EXPECT_NEAR(measured, predicted, predicted * 0.15);
}

TEST_P(GroupSizeSweep, MemoryFootprintWithinBound) {
  const std::size_t S = GetParam();
  topics::TopicHierarchy hierarchy;
  const auto levels = topics::make_linear_hierarchy(hierarchy, 1);
  DamSystem::Config config;
  config.seed = S;
  config.auto_wire_super_tables = true;
  DamSystem system(hierarchy, config);
  system.spawn_group(levels[0], 5);
  const auto members = system.spawn_group(levels[1], S);
  system.run_rounds(10);  // let membership fill the views
  const TopicParams& params = config.node.params;
  for (ProcessId member : members) {
    // ln(S)+c <= footprint bound: we check the hard cap
    // (b+1)ln(S) + z the implementation enforces.
    EXPECT_LE(system.node(member).memory_footprint(),
              params.view_capacity(S) + params.z);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GroupSizeSweep,
                         ::testing::Values(16u, 64u, 256u, 1024u),
                         [](const auto& info) {
                           return "S" + std::to_string(info.param);
                         });

TEST(ComplexityComparison, DamBeatsBroadcastOnTotalMessagesForSubtopicEvents) {
  // An event of T0 (10 subscribers) costs daMulticast ~10·8 messages but
  // costs broadcast ~1110·13 messages.
  const testing::Chain chain;
  const FrozenSimConfig config = chain.publish_at(0, 5);
  const auto broadcast = baselines::run_broadcast(config);
  const auto dam = run_frozen_simulation(config);
  EXPECT_LT(dam.total_messages * 10, broadcast.messages_sent);
}

TEST(ComplexityComparison, DamMatchesMulticastOrderForBottomEvents) {
  // Both are O(S_Tmax ln S_Tmax); daMulticast adds only the tiny
  // intergroup traffic. Within a factor of ~1.5 of each other.
  const testing::Chain chain;
  const FrozenSimConfig config = chain.config(6);
  const auto multicast = baselines::run_multicast(config);
  const auto dam = run_frozen_simulation(config);
  const double ratio = static_cast<double>(dam.total_messages) /
                       static_cast<double>(multicast.messages_sent);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 1.5);
}

TEST(ComplexityComparison, MemoryOrderingMatchesPaperTable) {
  // Sec. VI-E.2 ordering for a root-subscribed process in the paper
  // scenario: daM < hierarchical < multicast(b); and daM < broadcast.
  const std::vector<std::size_t> sizes{10, 100, 1000};
  const double dam = analysis::dam_memory(10, 5.0, 3);
  const double bcast = analysis::broadcast_memory_per_process(1110, 5.0);
  const double mcast = analysis::multicast_memory_per_process(sizes, 0, 5.0);
  const double hier =
      analysis::hierarchical_memory_per_process(16, 70, 5.0, 5.0);
  EXPECT_LT(dam, bcast);
  EXPECT_LT(dam, mcast);
  EXPECT_LT(dam, hier);
  EXPECT_LT(bcast, mcast);
}

TEST(ComplexityComparison, DamMemoryIndependentOfHierarchyDepth) {
  // The headline claim: a process needs 2 tables regardless of depth.
  // Memory for a bottom subscriber depends on its own S and z only.
  const double depth3 = analysis::dam_memory(1000, 5.0, 3);
  const double depth10 = analysis::dam_memory(1000, 5.0, 3);
  EXPECT_DOUBLE_EQ(depth3, depth10);
  // Whereas multicast(b) memory grows with every added level.
  std::vector<std::size_t> shallow{10, 1000};
  std::vector<std::size_t> deep{10, 20, 30, 40, 1000};
  EXPECT_LT(analysis::multicast_memory_per_process(shallow, 0, 5.0),
            analysis::multicast_memory_per_process(deep, 0, 5.0));
}

class DepthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DepthSweep, TotalMessagesLinearInDepth) {
  // maxNbMsgSent <= t · S_Tmax · ln(S_Tmax) · (1 + c + z): with equal-size
  // groups the measured total grows about linearly in depth t.
  const std::size_t depth = GetParam();
  const testing::Chain chain(std::vector<std::size_t>(depth, 200));
  FrozenSimConfig config = chain.config(0);
  // Whether the upper groups are reached makes single runs spread widely
  // (standard deviation ~2,900-3,000 messages at t = 6, measured over
  // 2,000 seeds on two table-sampling streams, mean ~11,900-12,000). The
  // mean is taken over enough runs that the band edge lies at least four
  // standard errors from that measured mean; 8 runs gave only 1.3.
  double total = 0.0;
  constexpr int kRuns = 128;
  for (int run = 0; run < kRuns; ++run) {
    config.seed = depth * 100 + static_cast<std::uint64_t>(run);
    total += static_cast<double>(run_frozen_simulation(config).total_messages);
  }
  total /= kRuns;
  const TopicParams params;
  const double per_level = 200.0 * static_cast<double>(params.fanout(200));
  EXPECT_NEAR(total, per_level * static_cast<double>(depth),
              per_level * static_cast<double>(depth) * 0.2);
}

INSTANTIATE_TEST_SUITE_P(Depths, DepthSweep, ::testing::Values(1u, 2u, 4u, 6u),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace dam::core

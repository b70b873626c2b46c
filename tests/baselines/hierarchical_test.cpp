#include "baselines/hierarchical.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "analysis/formulas.hpp"
#include "frozen_chain.hpp"

namespace dam::baselines {
namespace {

using dam::testing::Audience;
using dam::testing::Chain;

TEST(Hierarchical, DeliversBroadlyWhenHealthy) {
  const Chain chain;
  const core::FrozenSimConfig config = chain.publish_at(2, 1, 1.0);
  const Audience audience(config, run_hierarchical(config));
  EXPECT_EQ(audience.alive, 1110u);
  // Two-level gossip is reliable but not perfect; expect near-full coverage.
  EXPECT_GT(audience.ratio(), 0.95);
}

TEST(Hierarchical, MidLevelEventCausesParasites) {
  const Chain chain;
  const core::FrozenSimConfig config = chain.publish_at(1, 2, 1.0);
  // Interest-agnostic grouping: the 1000 uninterested T2 subscribers are
  // spread across all groups and receive the event anyway.
  EXPECT_GT(Audience(config, run_hierarchical(config)).parasites, 800u);
}

TEST(Hierarchical, MessagesFollowTheImplementedModelNotEq10) {
  // Each infected process sends ⌈ln m + c1⌉ intra-group messages, and each
  // of its ⌈ln N + c2⌉ inter-view entries fires with probability 1/m, so a
  // publication costs about n·⌈ln m + c1⌉ + n·⌈ln N + c2⌉/m messages —
  // ~127 intergroup ones in total. The Appendix's Eq. 10 charges
  // ln N + c2 intergroup messages to every process instead.
  const Chain chain;
  const double n = 1110.0;
  const double N = static_cast<double>(kHierarchicalGroups);
  const double m = std::ceil(n / N);  // 70
  const double c = 5.0;
  const double intra = n * std::ceil(std::log(m) + c);
  const double inter = n * std::ceil(std::log(N) + c) / m;
  double total = 0.0;
  double inter_sent = 0.0;
  constexpr int kRuns = 20;
  for (int run = 0; run < kRuns; ++run) {
    const core::FrozenRunResult result = run_hierarchical(
        chain.publish_at(0, 0xA1 + static_cast<std::uint64_t>(run)));
    total += static_cast<double>(result.total_messages);
    for (const core::FrozenGroupResult& row : result.groups) {
      inter_sent += static_cast<double>(row.inter_sent);
    }
  }
  total /= kRuns;
  inter_sent /= kRuns;
  EXPECT_NEAR(total, intra + inter, (intra + inter) * 0.05);
  EXPECT_NEAR(inter_sent, inter, inter * 0.25);
  EXPECT_LT(total,
            0.7 * analysis::hierarchical_total_messages(16, 70, c, c));
}

TEST(Hierarchical, ChargesEachLegToTheSendersTopic) {
  const Chain chain;
  const core::FrozenSimConfig config = chain.publish_at(0, 3, 1.0);
  const core::FrozenRunResult run = run_hierarchical(config);
  std::uint64_t sent = 0;
  std::uint64_t inter_received = 0;
  for (std::size_t topic = 0; topic < 3; ++topic) {
    const core::FrozenGroupResult& row = run.groups[topic];
    EXPECT_EQ(row.size, chain.scenario.group_sizes[topic]);
    EXPECT_GT(row.intra_sent, 0u);
    sent += row.intra_sent + row.inter_sent;
    inter_received += row.inter_received;
  }
  EXPECT_EQ(sent, run.total_messages);
  EXPECT_GT(inter_received, 0u);
  EXPECT_FALSE(run.groups[1].all_alive_delivered);  // parasites
  EXPECT_TRUE(run.groups[0].all_alive_delivered);
}

TEST(Hierarchical, StillbornFailuresDegrade) {
  const Chain chain;
  core::FrozenSimConfig config = chain.publish_at(2, 4);
  config.alive_fraction = 0.4;
  const Audience audience(config, run_hierarchical(config));
  EXPECT_LE(audience.delivered, audience.alive);
  EXPECT_NEAR(static_cast<double>(audience.alive), 444.0, 60.0);
}

TEST(Hierarchical, GroupCountCappedByPopulation) {
  const Chain chain({2, 3, 4});  // population 9 < kHierarchicalGroups
  const core::FrozenSimConfig config = chain.publish_at(2, 5);
  EXPECT_GT(Audience(config, run_hierarchical(config)).delivered, 0u);
}

TEST(Hierarchical, RejectsBadConfigs) {
  const Chain chain;
  core::FrozenSimConfig bad_topic = chain.publish_at(2, 1);
  bad_topic.publish_topic = topics::TopicId{7};
  EXPECT_THROW((void)run_hierarchical(bad_topic), std::invalid_argument);

  core::FrozenSimConfig churn = chain.publish_at(2, 1);
  churn.failure_mode = core::FrozenFailureMode::kChurn;
  EXPECT_THROW((void)run_hierarchical(churn), std::invalid_argument);
}

TEST(Hierarchical, DeterministicForSeed) {
  const Chain chain;
  const core::FrozenSimConfig config = chain.publish_at(2, 99);
  const core::FrozenRunResult a = run_hierarchical(config);
  const core::FrozenRunResult b = run_hierarchical(config);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(Audience(config, a).delivered, Audience(config, b).delivered);
}

}  // namespace
}  // namespace dam::baselines

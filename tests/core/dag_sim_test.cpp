// run_frozen_simulation on a diamond DAG (the conclusion's
// multiple-inheritance extension): B ⊂ M1, B ⊂ M2, M1 ⊂ A, M2 ⊂ A.
#include "core/frozen_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/formulas.hpp"
#include "frozen_chain.hpp"
#include "util/stats.hpp"

namespace dam::core {
namespace {

using topics::DagTopicId;
using topics::TopicDag;
using dam::testing::Chain;

struct Diamond {
  TopicDag dag;
  DagTopicId a, m1, m2, b;
  FrozenSimConfig cell;  ///< publishing in B, default params

  Diamond() {
    a = dag.add_topic("A");
    m1 = dag.add_topic("M1");
    m2 = dag.add_topic("M2");
    b = dag.add_topic("B");
    dag.add_super(m1, a);
    dag.add_super(m2, a);
    dag.add_super(b, m1);
    dag.add_super(b, m2);
    cell.dag = &dag;
    cell.group_sizes = {10, 40, 40, 200};  // a, m1, m2, b
    cell.publish_topic = b;
  }
  // `cell` points at `dag`: a copy would point at the original's DAG.
  Diamond(const Diamond&) = delete;
  Diamond& operator=(const Diamond&) = delete;

  [[nodiscard]] FrozenSimConfig config(std::uint64_t seed) const {
    FrozenSimConfig config = cell;
    config.seed = seed;
    return config;
  }
};

TEST(FrozenSimDag, HealthyDiamondDeliversToAllAncestors) {
  Diamond d;
  auto config = d.config(1);
  config.params.front().psucc = 1.0;
  const auto result = run_frozen_simulation(config);
  EXPECT_EQ(result.groups[d.b.value].delivered, 200u);
  EXPECT_GT(result.groups[d.m1.value].delivered, 0u);
  EXPECT_GT(result.groups[d.m2.value].delivered, 0u);
  EXPECT_GT(result.groups[d.a.value].delivered, 0u);
}

TEST(FrozenSimDag, EventNeverFlowsDownOrSideways) {
  // Publish in M1: B (subtopic) and M2 (sibling) must stay clean.
  Diamond d;
  auto config = d.config(2);
  config.publish_topic = d.m1;
  config.params.front().psucc = 1.0;
  const auto result = run_frozen_simulation(config);
  EXPECT_EQ(result.groups[d.b.value].delivered, 0u);
  EXPECT_EQ(result.groups[d.m2.value].delivered, 0u);
  EXPECT_GT(result.groups[d.m1.value].delivered, 0u);
  EXPECT_GT(result.groups[d.a.value].delivered, 0u);
  EXPECT_TRUE(result.groups[d.b.value].all_alive_delivered);  // = clean
}

TEST(FrozenSimDag, BothParentLegsCarryTraffic) {
  // With psel forced to 1, B members send along BOTH supertopic tables.
  Diamond d;
  auto config = d.config(3);
  config.params.front().g = 10000.0;  // psel = 1
  config.params.front().a = 3.0;      // pa = 1
  config.params.front().psucc = 1.0;
  const auto result = run_frozen_simulation(config);
  EXPECT_GT(result.groups[d.m1.value].inter_received, 0u);
  EXPECT_GT(result.groups[d.m2.value].inter_received, 0u);
}

TEST(FrozenSimDag, DuplicatesSuppressedAtTheJoin) {
  // The top group receives the event along two paths; each process must
  // still deliver exactly once (delivered <= alive).
  Diamond d;
  auto config = d.config(4);
  config.params.front().g = 10000.0;
  config.params.front().a = 3.0;
  config.params.front().psucc = 1.0;
  const auto result = run_frozen_simulation(config);
  EXPECT_LE(result.groups[d.a.value].delivered,
            result.groups[d.a.value].alive);
  // Redundant arrivals exist and were counted as duplicates, not
  // deliveries.
  EXPECT_GT(result.groups[d.a.value].duplicate_deliveries +
                result.groups[d.m1.value].duplicate_deliveries +
                result.groups[d.m2.value].duplicate_deliveries,
            0u);
}

TEST(FrozenSimDag, DiamondBeatsSingleParentPathReliability) {
  // At low psucc, two independent upward paths reach the top more often
  // than one. Compare the diamond against a chain with ONE mid group of
  // the same total mid population.
  const Chain chain({10, 80, 200});
  Diamond d;
  constexpr int kRuns = 200;
  util::Proportion chain_top;
  util::Proportion diamond_top;
  for (int run = 0; run < kRuns; ++run) {
    TopicParams params;
    params.psucc = 0.35;
    params.g = 2.0;

    FrozenSimConfig chain_config =
        chain.config(9000 + static_cast<std::uint64_t>(run));
    chain_config.params = {params};
    chain_top.add(run_frozen_simulation(chain_config).groups[0].delivered > 0);

    auto diamond_config = d.config(9000 + static_cast<std::uint64_t>(run));
    diamond_config.params = {params};
    diamond_top.add(
        run_frozen_simulation(diamond_config).groups[d.a.value].delivered > 0);
  }
  EXPECT_GT(diamond_top.estimate(), chain_top.estimate());
}

TEST(FrozenSimDag, MemoryFormulaCountsOneTablePerParent) {
  // Sec. VI-C's ln(S) + c + z, with one z-table per direct supertopic.
  Diamond d;
  const TopicParams params;
  const auto memory = [&](DagTopicId topic, std::size_t size) {
    return analysis::dam_memory(size, params.c,
                                params.z * d.dag.supers(topic).size());
  };
  // B has two parents -> 2z; M1 has one -> z.
  EXPECT_NEAR(memory(d.b, 200) - (std::log(200.0) + params.c), 6.0, 1e-9);
  EXPECT_NEAR(memory(d.m1, 40) - (std::log(40.0) + params.c), 3.0, 1e-9);
  // Root: no supertopic tables at all.
  EXPECT_NEAR(memory(d.a, 10), std::log(10.0) + params.c, 1e-9);
}

TEST(FrozenSimDag, SingleTopicDegenerate) {
  TopicDag dag;
  const auto only = dag.add_topic("only");
  FrozenSimConfig config;
  config.dag = &dag;
  config.group_sizes = {300};
  config.publish_topic = only;
  config.params.front().psucc = 1.0;
  config.seed = 5;
  const auto result = run_frozen_simulation(config);
  EXPECT_EQ(result.groups[0].delivered, 300u);
  EXPECT_EQ(result.groups[0].inter_sent, 0u);
}

TEST(FrozenSimDag, RejectsBadConfigs) {
  Diamond d;
  FrozenSimConfig no_dag;
  EXPECT_THROW((void)run_frozen_simulation(no_dag), std::invalid_argument);

  auto wrong_sizes = d.config(1);
  wrong_sizes.group_sizes = {10, 10};
  EXPECT_THROW((void)run_frozen_simulation(wrong_sizes),
               std::invalid_argument);

  auto no_sizes = d.config(1);
  no_sizes.group_sizes = {};
  EXPECT_THROW((void)run_frozen_simulation(no_sizes), std::invalid_argument);

  auto empty_group = d.config(1);
  empty_group.group_sizes = {10, 0, 40, 200};
  EXPECT_THROW((void)run_frozen_simulation(empty_group),
               std::invalid_argument);

  auto bad_topic = d.config(1);
  bad_topic.publish_topic = DagTopicId{99};
  EXPECT_THROW((void)run_frozen_simulation(bad_topic), std::invalid_argument);
}

TEST(FrozenSimDag, DeterministicForSeed) {
  Diamond d;
  const auto x = run_frozen_simulation(d.config(42));
  const auto y = run_frozen_simulation(d.config(42));
  EXPECT_EQ(x.total_messages, y.total_messages);
  for (std::size_t i = 0; i < x.groups.size(); ++i) {
    EXPECT_EQ(x.groups[i].delivered, y.groups[i].delivered);
  }
}

TEST(FrozenSimDag, StillbornFailuresApply) {
  Diamond d;
  auto config = d.config(7);
  config.alive_fraction = 0.5;
  const auto result = run_frozen_simulation(config);
  EXPECT_NEAR(static_cast<double>(result.groups[d.b.value].alive), 100.0,
              25.0);
  EXPECT_LE(result.groups[d.b.value].delivered,
            result.groups[d.b.value].alive);
}

}  // namespace
}  // namespace dam::core

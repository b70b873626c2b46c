// The churn regime of the unified frozen-table engine: crash/recovery
// outage schedules (sim::ChurnFailures) behind FrozenFailureMode::kChurn.
#include <gtest/gtest.h>

#include <string>

#include "core/frozen_sim.hpp"
#include "topics/dag.hpp"

namespace dam::core {
namespace {

struct Fixture {
  topics::TopicDag dag;
  FrozenSimConfig config;

  explicit Fixture(std::vector<std::size_t> sizes) {
    std::vector<topics::TopicId> ids;
    for (std::size_t level = 0; level < sizes.size(); ++level) {
      std::string name = "T";
      name += std::to_string(level);
      ids.push_back(dag.add_topic(name));
      if (level > 0) dag.add_super(ids[level], ids[level - 1]);
    }
    config.dag = &dag;
    config.group_sizes = std::move(sizes);
    config.publish_topic = ids.back();
    config.seed = 42;
  }
};

TEST(FrozenChurn, ZeroOutagesMatchesTheFullyAliveRunBitForBit) {
  // With no outages the churn schedule draws nothing from the RNG and
  // never blocks a delivery, so the run must be identical to the stillborn
  // regime at alive_fraction = 1 (which also consumes no failure draws).
  Fixture churn({10, 100});
  churn.config.failure_mode = FrozenFailureMode::kChurn;
  churn.config.churn = FrozenChurnConfig{0, 2, 16};
  Fixture still({10, 100});
  still.config.failure_mode = FrozenFailureMode::kStillborn;
  still.config.alive_fraction = 1.0;
  for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
    churn.config.seed = seed;
    still.config.seed = seed;
    const auto a = run_frozen_simulation(churn.config);
    const auto b = run_frozen_simulation(still.config);
    EXPECT_EQ(a.total_messages, b.total_messages);
    EXPECT_EQ(a.rounds, b.rounds);
    ASSERT_EQ(a.groups.size(), b.groups.size());
    for (std::size_t topic = 0; topic < a.groups.size(); ++topic) {
      EXPECT_EQ(a.groups[topic].intra_sent, b.groups[topic].intra_sent);
      EXPECT_EQ(a.groups[topic].inter_sent, b.groups[topic].inter_sent);
      EXPECT_EQ(a.groups[topic].delivered, b.groups[topic].delivered);
    }
  }
}

TEST(FrozenChurn, DeterministicPerSeed) {
  Fixture fixture({10, 80});
  fixture.config.failure_mode = FrozenFailureMode::kChurn;
  fixture.config.churn = FrozenChurnConfig{2, 3, 12};
  const auto a = run_frozen_simulation(fixture.config);
  const auto b = run_frozen_simulation(fixture.config);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.groups[1].delivered, b.groups[1].delivered);
  EXPECT_EQ(a.groups[0].inter_received, b.groups[0].inter_received);
}

TEST(FrozenChurn, EveryoneCountsAsAliveBecauseProcessesRecover) {
  Fixture fixture({10, 80});
  fixture.config.failure_mode = FrozenFailureMode::kChurn;
  fixture.config.churn = FrozenChurnConfig{2, 3, 12};
  const auto result = run_frozen_simulation(fixture.config);
  EXPECT_EQ(result.groups[0].alive, 10u);
  EXPECT_EQ(result.groups[1].alive, 80u);
}

TEST(FrozenChurn, HeavierChurnDeliversNoMoreThanLighterChurn) {
  // Aggregate over seeds: longer/more outages can only block more
  // deliveries. (Compared per-seed the streams differ, so compare means.)
  auto mean_delivered = [](std::size_t outages, std::size_t length) {
    double total = 0.0;
    constexpr int kRuns = 40;
    for (int run = 0; run < kRuns; ++run) {
      Fixture fixture({10, 80});
      fixture.config.failure_mode = FrozenFailureMode::kChurn;
      fixture.config.churn = FrozenChurnConfig{outages, length, 10};
      fixture.config.seed = 1000 + static_cast<std::uint64_t>(run);
      const auto result = run_frozen_simulation(fixture.config);
      total += static_cast<double>(result.groups[1].delivered);
    }
    return total / kRuns;
  };
  const double light = mean_delivered(1, 1);
  const double heavy = mean_delivered(4, 6);
  EXPECT_LT(heavy, light);
  EXPECT_GT(light, 60.0);  // mild churn still reaches most of the group
}

TEST(FrozenChurn, AliveFractionKnobIsIgnoredUnderChurn) {
  Fixture a({10, 80});
  a.config.failure_mode = FrozenFailureMode::kChurn;
  a.config.churn = FrozenChurnConfig{1, 2, 12};
  a.config.alive_fraction = 1.0;
  Fixture b({10, 80});
  b.config.failure_mode = FrozenFailureMode::kChurn;
  b.config.churn = FrozenChurnConfig{1, 2, 12};
  b.config.alive_fraction = 0.2;  // must change nothing
  const auto ra = run_frozen_simulation(a.config);
  const auto rb = run_frozen_simulation(b.config);
  EXPECT_EQ(ra.total_messages, rb.total_messages);
  EXPECT_EQ(ra.groups[1].delivered, rb.groups[1].delivered);
}

}  // namespace
}  // namespace dam::core

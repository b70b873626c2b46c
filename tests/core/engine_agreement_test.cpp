// Engine-agreement regression: the frozen-table engine (core/frozen_sim)
// on the paper's path DAG must reproduce its pinned per-seed counters
// bit-for-bit — same seed ⇒ same per-group intra_sent / inter_sent /
// inter_received / delivered and same round count — on the Fig. 8/9
// configurations (paper setting, S={10,100,1000}); the seeds are the ones
// the figure benches derive.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/frozen_sim.hpp"
#include "frozen_chain.hpp"

namespace dam::core {
namespace {

struct GoldenGroup {
  std::uint64_t intra_sent;
  std::uint64_t inter_sent;
  std::uint64_t inter_received;
  std::size_t delivered;
};

struct GoldenRun {
  double alive;
  std::uint64_t seed;
  FrozenFailureMode mode;
  std::size_t rounds;
  GoldenGroup groups[3];  // levels 0 (root) .. 2 (bottom)
};

// Captured from the engine's one stream. Seeds follow the fig8/fig9 bench
// derivations base + run·{977,613} + alive·1000.
constexpr GoldenRun kGolden[] = {
    {1.0, 4864ULL, FrozenFailureMode::kStillborn, 12,
     {{80ULL, 0ULL, 2ULL, 10}, {1000ULL, 4ULL, 1ULL, 100},
      {12000ULL, 2ULL, 0ULL, 1000}}},
    {1.0, 6704ULL, FrozenFailureMode::kStillborn, 9,
     {{80ULL, 0ULL, 3ULL, 10}, {1000ULL, 3ULL, 2ULL, 100},
      {12000ULL, 3ULL, 0ULL, 1000}}},
    {0.7, 11403ULL, FrozenFailureMode::kStillborn, 6,
     {{0ULL, 0ULL, 0ULL, 0}, {0ULL, 0ULL, 0ULL, 0},
      {8340ULL, 1ULL, 0ULL, 695}}},
    {0.5, 11108ULL, FrozenFailureMode::kStillborn, 8,
     {{0ULL, 0ULL, 0ULL, 0}, {0ULL, 0ULL, 0ULL, 0},
      {6000ULL, 0ULL, 0ULL, 500}}},
    {0.3, 22727ULL, FrozenFailureMode::kStillborn, 9,
     {{0ULL, 0ULL, 0ULL, 0}, {0ULL, 0ULL, 0ULL, 0},
      {3288ULL, 1ULL, 0ULL, 274}}},
    {0.6, 12345ULL, FrozenFailureMode::kDynamicPerception, 11,
     {{80ULL, 0ULL, 2ULL, 10}, {980ULL, 6ULL, 3ULL, 98},
      {11988ULL, 3ULL, 0ULL, 999}}},
};

TEST(EngineAgreement, EngineReproducesPinnedStaticCounters) {
  const testing::Chain chain;  // the paper setting {10, 100, 1000}
  for (const GoldenRun& golden : kGolden) {
    FrozenSimConfig config = chain.config(golden.seed, golden.alive);
    config.failure_mode = golden.mode;
    const FrozenRunResult result = run_frozen_simulation(config);
    SCOPED_TRACE("seed " + std::to_string(golden.seed));
    EXPECT_EQ(result.rounds, golden.rounds);
    ASSERT_EQ(result.groups.size(), 3u);
    for (int level = 0; level < 3; ++level) {
      SCOPED_TRACE("level " + std::to_string(level));
      const FrozenGroupResult& group = result.groups[level];
      const GoldenGroup& expected = golden.groups[level];
      EXPECT_EQ(group.intra_sent, expected.intra_sent);
      EXPECT_EQ(group.inter_sent, expected.inter_sent);
      EXPECT_EQ(group.inter_received, expected.inter_received);
      EXPECT_EQ(group.delivered, expected.delivered);
    }
  }
}

}  // namespace
}  // namespace dam::core

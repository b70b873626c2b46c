// Scale smoke: a 100k-process single group must build its membership
// tables and disseminate in interactive time under ctest. Before the CSR
// refactor this configuration took minutes (the O(S²) pool copies alone);
// the budget below is ~50x above the observed post-refactor time, so it
// only trips on a genuine complexity regression, not on a slow runner.
#include <gtest/gtest.h>

#include <chrono>

#include "core/frozen_sim.hpp"
#include "topics/dag.hpp"

namespace dam::core {
namespace {

TEST(FrozenScale, HundredThousandProcessGroupStaysInBudget) {
  topics::TopicDag dag;
  const auto topic = dag.add_topic("giant");
  FrozenSimConfig config;
  config.dag = &dag;
  config.group_sizes = {100000};
  config.publish_topic = topic;
  config.seed = 0x61A;

  const auto start = std::chrono::steady_clock::now();
  const FrozenRunResult result = run_frozen_simulation(config);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_LT(seconds, 10.0) << "S=1e5 run took " << seconds << "s";
  EXPECT_EQ(result.groups[0].size, 100000u);
  EXPECT_GT(result.groups[0].delivered, 99000u);  // psucc=0.85, all alive
  // The engine reports where the time went and what the tables cost.
  EXPECT_GT(result.table_build_seconds, 0.0);
  EXPECT_GT(result.dissemination_seconds, 0.0);
  // O(S·k) contiguous: k = view ~ (b+1)ln(S) = 47 entries -> well under
  // 64 bytes/process with offsets; far from the old O(S²) transient.
  EXPECT_LT(result.table_bytes, 100000u * 64u * sizeof(std::uint32_t));
  EXPECT_GT(result.table_bytes, 100000u * sizeof(std::uint32_t));
}

}  // namespace
}  // namespace dam::core

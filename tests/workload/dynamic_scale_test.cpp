// Scale smoke for the dynamic lane: a 100k-process group through the full
// message-passing engine (spawn, membership gossip, one publication,
// drain) must finish in interactive time under ctest. Before the shared
// view arena, spawn-time per-node view copies plus allocator churn put
// this configuration out of reach; the budget is ~20x the observed
// post-arena time so it only trips on a genuine complexity regression.
// bench_dynamic_scale is the S=1e6 counterpart gated in CI.
#include <gtest/gtest.h>

#include <chrono>

#include "sim/scenario.hpp"
#include "workload/driver.hpp"

namespace dam::workload {
namespace {

TEST(DynamicScale, HundredThousandProcessRunStaysInBudget) {
  const sim::Scenario* preset = sim::find_scenario("giant-dynamic");
  ASSERT_NE(preset, nullptr);
  const topics::TopicDag dag = preset->build_dag();

  const auto start = std::chrono::steady_clock::now();
  const DynamicRunResult result =
      run_dynamic_simulation(*preset, dag, 1.0, 0);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_LT(seconds, 60.0) << "S=1e5 dynamic run took " << seconds << "s";
  ASSERT_EQ(result.groups.size(), 1u);
  EXPECT_EQ(result.groups[0].size, 100000u);
  EXPECT_EQ(result.publications, 1u);
  EXPECT_GT(result.event_reliability, 0.95);
  // The run reports where its time and memory went.
  EXPECT_GT(result.table_build_seconds, 0.0);
  EXPECT_LT(result.table_build_seconds, result.wall_seconds);
  // O(S·k) contiguous arena: k ~ (b+1)ln(S) = 47 view entries + z super
  // entries per process — well under 64 u32-sized slots each, and far
  // from the ~S per-node vector headers the old layout heap-churned.
  EXPECT_GT(result.table_bytes, 100000u * sizeof(std::uint32_t));
  EXPECT_LT(result.table_bytes, 100000u * 64u * sizeof(std::uint32_t));
  // Slab queue high-water mark: ~24 bytes per queued copy. The observed
  // peak is 29.5 MiB; 48 MiB (the CI --queue-budget) trips on any return
  // of per-copy Message storage (184 B/copy would put this near 226 MiB).
  EXPECT_GT(result.queue_bytes, 0u);
  EXPECT_LT(result.queue_bytes, 48u << 20);
}

}  // namespace
}  // namespace dam::workload

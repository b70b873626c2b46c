// Scale smoke for the dynamic lane: a 100k-process group through the full
// message-passing engine (spawn, membership gossip, one publication,
// drain) must finish in interactive time under ctest. Before batch
// wiring, per-member candidate copies plus allocator churn put this
// configuration out of reach; spawn_group now writes each joiner's rows
// once, into its own storage, in id order. The budget is ~20x the
// observed time so it only trips on a genuine complexity regression.
// The S=1e6 counterpart is CI's `damlab --scenario=giant-dynamic --grid
// scale=10` run under a wall budget.
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
  // Logical CSR bytes of the spawn rows, O(S·k): k ~ (b+1)ln(S) = 47 view
  // entries + z super entries per process — well under 64 u32-sized
  // slots each.
  EXPECT_GT(result.table_bytes, 100000u * sizeof(std::uint32_t));
  EXPECT_LT(result.table_bytes, 100000u * 64u * sizeof(std::uint32_t));
  // Slab queue high-water mark: a 12-byte header per fan-out and 4 bytes
  // per queued copy, beside each control message's 20-byte record and
  // arena ids (one membership exchange per process per round, 80 bytes
  // each, is most of the peak). The observed peak is 10.2 MiB; 16 MiB
  // trips on a return of 24-byte per-copy records (~26 MiB) or of
  // per-copy Message storage (184 B/copy would put this near 226 MiB).
  // The control record's size is pinned exactly in
  // tests/net/transport_slab_test.cpp.
  EXPECT_GT(result.queue_bytes, 0u);
  EXPECT_LT(result.queue_bytes, 16u << 20);
  // Worst-window seen/delivered/request-set footprint: 12,504 bytes for
  // one publication (a single seen column of one bit per process, which is
  // also its delivered set). 0.025 MiB trips on any per-process growth
  // beyond that bit.
  EXPECT_GT(result.timeline.peak_bookkeeping_bytes(), 0u);
  EXPECT_LE(result.timeline.peak_bookkeeping_bytes(),
            static_cast<std::uint64_t>(0.025 * (1 << 20)));
}

}  // namespace
}  // namespace dam::workload

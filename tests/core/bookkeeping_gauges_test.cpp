// DamSystem::bookkeeping_gauges — the flight recorder's resource gauges —
// cross-checked against a hand-counted single-event run: one event means
// one seen column of ceil(S/64) words, the delivered set is that same
// column (no bytes of its own), and a healthy run issues no recovery
// requests.
#include "core/system.hpp"

#include <gtest/gtest.h>

#include "topics/hierarchy.hpp"

namespace dam::core {
namespace {

TEST(BookkeepingGauges, EmptySystemReportsZero) {
  topics::TopicHierarchy hierarchy;
  topics::make_linear_hierarchy(hierarchy, 0);
  const DamSystem system(hierarchy, {});
  const DamSystem::BookkeepingGauges gauges = system.bookkeeping_gauges();
  EXPECT_EQ(gauges.seen_bytes, 0u);
  EXPECT_EQ(gauges.delivered_bytes, 0u);
  EXPECT_EQ(gauges.request_bytes, 0u);
}

TEST(BookkeepingGauges, SingleEventRunMatchesHandCount) {
  topics::TopicHierarchy hierarchy;
  const auto levels = topics::make_linear_hierarchy(hierarchy, 0);
  DamSystem::Config config;
  config.seed = 5;
  config.node.params.psucc = 1.0;  // lossless: near-total delivery
  DamSystem system(hierarchy, config);
  const auto members = system.spawn_group(levels[0], 50);
  system.run_rounds(3);
  const auto event = system.publish(members[0]);
  system.run_rounds(20);

  const std::size_t delivered = system.delivered_set(event).size();
  ASSERT_GT(delivered, 45u);  // the run actually disseminated

  const DamSystem::BookkeepingGauges gauges = system.bookkeeping_gauges();
  // Exactly one column of ceil(50/64) = 1 word; the delivered set reads it.
  EXPECT_EQ(gauges.seen_bytes, ((50 + 63) / 64) * sizeof(std::uint64_t));
  EXPECT_EQ(gauges.delivered_bytes, 0u);
  // A process has seen the event iff it delivered it: every reception is
  // by an interested process in the single-topic degenerate case.
  std::size_t seen = 0;
  for (std::uint32_t p = 0; p < system.process_count(); ++p) {
    const bool has_seen = system.node(ProcessId{p}).has_seen(event);
    EXPECT_EQ(has_seen, system.delivered_set(event).contains(ProcessId{p}));
    seen += has_seen;
  }
  EXPECT_EQ(seen, delivered);
  // No failures, no gaps, no recovery: the request sets stay empty.
  EXPECT_EQ(gauges.request_bytes, 0u);
}

}  // namespace
}  // namespace dam::core

// Full-system integration: dynamic membership, real bootstrap (no
// auto-wiring), multiple publishers, multi-branch hierarchies.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/system.hpp"
#include "topics/hierarchy.hpp"

namespace dam::core {
namespace {

// Cold start: nodes discover super contacts through the overlay, then one
// leaf publishes over lossy channels. Checks that nothing reached a
// process outside the event's interest, and returns the delivery ratio.
double run_cold_start(std::uint64_t seed) {
  topics::TopicHierarchy hierarchy;
  const auto levels = topics::make_linear_hierarchy(hierarchy, 2);
  DamSystem::Config config;
  config.seed = seed;
  config.neighborhood_degree = 6;
  config.node.params.psucc = 0.95;
  DamSystem system(hierarchy, config);
  system.spawn_group(levels[0], 10);
  system.spawn_group(levels[1], 25);
  const auto leaves = system.spawn_group(levels[2], 50);

  // Cold start: nodes must discover super contacts through the overlay.
  system.run_rounds(50);

  const auto event = system.publish(leaves[3]);
  system.run_rounds(30);
  EXPECT_EQ(system.metrics().parasite_deliveries(), 0u);
  return system.delivery_ratio(event);
}

TEST(EndToEnd, ColdStartBootstrapThenPublish) { (void)run_cold_start(5); }

// Three events (two leaf publishers, one mid-level) on a 2-level linear
// hierarchy after three warm-up rounds. Checks that the mid-level event
// reached no leaf and returns whether every event reached every
// interested process.
bool run_many_publishers(std::uint64_t seed) {
  topics::TopicHierarchy hierarchy;
  const auto levels = topics::make_linear_hierarchy(hierarchy, 2);
  DamSystem::Config config;
  config.seed = seed;
  config.auto_wire_super_tables = true;
  config.node.params.psucc = 1.0;
  DamSystem system(hierarchy, config);
  system.spawn_group(levels[0], 8);
  const auto mids = system.spawn_group(levels[1], 16);
  const auto leaves = system.spawn_group(levels[2], 32);
  system.run_rounds(3);

  std::vector<net::EventId> events;
  events.push_back(system.publish(leaves[0]));
  events.push_back(system.publish(leaves[10]));
  events.push_back(system.publish(mids[2]));
  system.run_rounds(30);

  // The mid-level event must not have reached any leaf.
  for (ProcessId leaf : leaves) {
    EXPECT_FALSE(system.delivered_set(events[2]).contains(leaf));
  }
  bool all = true;
  for (const auto& event : events) all = all && system.all_delivered(event);
  return all;
}

// One event from .market.stocks.tech on a five-topic tree. Checks that it
// reached no sibling-branch subscriber and no parasite, and returns whether
// it reached every interested process.
bool run_multi_branch(std::uint64_t seed) {
  topics::TopicHierarchy hierarchy;
  const auto market = hierarchy.add(".market");
  const auto stocks = hierarchy.add(".market.stocks");
  const auto tech = hierarchy.add(".market.stocks.tech");
  const auto energy = hierarchy.add(".market.stocks.energy");
  const auto bonds = hierarchy.add(".market.bonds");

  DamSystem::Config config;
  config.seed = seed;
  config.auto_wire_super_tables = true;
  config.node.params.psucc = 1.0;
  DamSystem system(hierarchy, config);
  system.spawn_group(market, 6);
  system.spawn_group(stocks, 12);
  const auto tech_subs = system.spawn_group(tech, 20);
  const auto energy_subs = system.spawn_group(energy, 20);
  const auto bond_subs = system.spawn_group(bonds, 10);
  system.run_rounds(3);

  const auto event = system.publish(tech_subs[0]);
  system.run_rounds(30);

  const auto& delivered = system.delivered_set(event);
  for (ProcessId p : energy_subs) EXPECT_FALSE(delivered.contains(p));
  for (ProcessId p : bond_subs) EXPECT_FALSE(delivered.contains(p));
  EXPECT_EQ(system.metrics().parasite_deliveries(), 0u);
  return system.all_delivered(event);
}

TEST(EndToEnd, ManyPublishersManyEvents) { (void)run_many_publishers(6); }

TEST(EndToEnd, MultiBranchTreeRouting) { (void)run_multi_branch(7); }

// Complete delivery after only three warm-up rounds is a per-seed gossip
// outcome, not a guarantee, so it is asserted as a rate over 300 seeds:
// each bound sits four binomial standard deviations below the rate
// measured on two table-sampling streams, and the routing checks run on
// every seed.
TEST(EndToEnd, ManyPublishersCompleteDeliveryRate) {
  int complete = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    complete += run_many_publishers(seed) ? 1 : 0;
  }
  // Measured: 136 and 127 of 300.
  EXPECT_GE(complete, 92) << complete << " of 300 seeds";
}

TEST(EndToEnd, MultiBranchCompleteDeliveryRate) {
  int complete = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    complete += run_multi_branch(seed) ? 1 : 0;
  }
  // Measured: 241 and 234 of 300.
  EXPECT_GE(complete, 205) << complete << " of 300 seeds";
}

// Reaching 90% of the hierarchy after a cold start is a per-seed outcome
// too. The bound sits four binomial standard deviations below the rate
// measured before and after mid-run joins became O(view) (the two agree
// seed for seed); the safety check runs on every seed.
TEST(EndToEnd, ColdStartDeliveryRate) {
  int reliable = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    reliable += run_cold_start(seed) > 0.9 ? 1 : 0;
  }
  // Measured: 275 of 300.
  EXPECT_GE(reliable, 255) << reliable << " of 300 seeds";
}

// A process joins a formed group through spawn(), gossip integrates it,
// then an original member publishes. Checks that the joiner's topic table
// was seeded and that no delivery was a parasite, and returns whether the
// joiner delivered the event.
bool run_late_joiner(std::uint64_t seed) {
  topics::TopicHierarchy hierarchy;
  const auto levels = topics::make_linear_hierarchy(hierarchy, 1);
  DamSystem::Config config;
  config.seed = seed;
  config.auto_wire_super_tables = true;
  config.node.params.psucc = 1.0;
  DamSystem system(hierarchy, config);
  system.spawn_group(levels[0], 5);
  const auto original = system.spawn_group(levels[1], 20);
  system.run_rounds(5);

  // A process joins after the group formed.
  const auto late = system.spawn(levels[1]);
  EXPECT_FALSE(system.node(late).group_membership().view().empty());
  system.run_rounds(8);  // membership gossip integrates it

  const auto event = system.publish(original[0]);
  system.run_rounds(20);
  EXPECT_EQ(system.metrics().parasite_deliveries(), 0u);
  return system.delivered_set(event).contains(late);
}

TEST(EndToEnd, LateJoinerCatchesFutureEvents) { (void)run_late_joiner(8); }

// Likewise for reaching the late joiner.
TEST(EndToEnd, LateJoinerDeliveryRate) {
  int reached = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    reached += run_late_joiner(seed) ? 1 : 0;
  }
  // Measured: 299 of 300.
  EXPECT_GE(reached, 295) << reached << " of 300 seeds";
}

TEST(EndToEnd, PublisherInRootGroupOnly) {
  topics::TopicHierarchy hierarchy;
  const auto levels = topics::make_linear_hierarchy(hierarchy, 2);
  DamSystem::Config config;
  config.seed = 9;
  config.auto_wire_super_tables = true;
  config.node.params.psucc = 1.0;
  DamSystem system(hierarchy, config);
  const auto roots = system.spawn_group(levels[0], 12);
  const auto mids = system.spawn_group(levels[1], 20);
  system.spawn_group(levels[2], 30);
  system.run_rounds(3);

  const auto event = system.publish(roots[0]);
  system.run_rounds(20);
  EXPECT_TRUE(system.all_delivered(event));
  // Only the root group should have received it.
  for (ProcessId mid : mids) {
    EXPECT_FALSE(system.delivered_set(event).contains(mid));
  }
  EXPECT_EQ(system.metrics().group(levels[0]).inter_sent, 0u);
}

TEST(EndToEnd, ControlTrafficStaysModest) {
  // Membership + maintenance traffic per round per process is O(1).
  topics::TopicHierarchy hierarchy;
  const auto levels = topics::make_linear_hierarchy(hierarchy, 1);
  DamSystem::Config config;
  config.seed = 10;
  config.auto_wire_super_tables = true;
  DamSystem system(hierarchy, config);
  system.spawn_group(levels[0], 10);
  system.spawn_group(levels[1], 40);
  constexpr std::size_t kRounds = 30;
  system.run_rounds(kRounds);
  const auto control = system.metrics().total_control_messages();
  // <= ~1 gossip per process per round plus a little maintenance slack.
  EXPECT_LE(control, 50u * kRounds * 2);
  EXPECT_GT(control, 0u);
}

}  // namespace
}  // namespace dam::core

// Churn and repair: supertopic-table maintenance (Fig. 6) must keep the
// hierarchy connected as processes crash and recover.
#include <gtest/gtest.h>

#include "core/system.hpp"
#include "topics/dag.hpp"

namespace dam::core {
namespace {

TEST(Churn, SuperTableRepairsAfterSupergroupDeaths) {
  topics::TopicDag hierarchy;
  const auto levels = topics::make_linear_hierarchy(hierarchy, 1);
  DamSystem::Config config;
  config.seed = 31;
  config.auto_wire_super_tables = true;
  config.node.params.g = 1000.0;  // psel = 1: maintenance probes every period
  config.node.params.a = 3.0;
  DamSystem system(hierarchy, config);
  const auto supers = system.spawn_group(levels[0], 12);
  const auto leaves = system.spawn_group(levels[1], 20);
  system.run_rounds(4);

  // Kill the specific superprocesses wired into leaf 0's table.
  const auto& table = system.node(leaves[0]).super_table();
  ASSERT_FALSE(table.empty());
  auto failures = std::make_unique<sim::ChurnFailures>(
      system.process_count());
  for (ProcessId p : table.entries()) {
    failures->add_downtime(p, {4, 1000000});  // dead from round 4 onward
  }
  // Keep at least one entry alive so NEWPROCESS can be answered... no:
  // kill all of them; repair must then go through other leaves' piggyback
  // or bootstrap. Track which died (copied: entries() is a span whose
  // backing storage moves when the table repairs itself).
  const std::vector<ProcessId> dead(table.entries().begin(),
                                    table.entries().end());
  system.set_failure_model(std::move(failures));
  system.run_rounds(60);

  const auto& repaired = system.node(leaves[0]).super_table();
  EXPECT_FALSE(repaired.empty());
  for (ProcessId entry : repaired.entries()) {
    for (ProcessId d : dead) {
      EXPECT_NE(entry, d) << "dead superprocess still in table";
    }
  }
  // The repaired link works: publish and check the super group receives.
  const auto event = system.publish(leaves[0]);
  system.run_rounds(25);
  std::size_t supers_delivered = 0;
  for (ProcessId p : supers) {
    if (system.delivered_set(event).contains(p)) ++supers_delivered;
  }
  EXPECT_GT(supers_delivered, 0u);
}

TEST(Churn, RecoveredProcessesReceiveLaterEvents) {
  topics::TopicDag hierarchy;
  const auto levels = topics::make_linear_hierarchy(hierarchy, 1);
  DamSystem::Config config;
  config.seed = 32;
  config.auto_wire_super_tables = true;
  config.node.params.psucc = 1.0;
  DamSystem system(hierarchy, config);
  system.spawn_group(levels[0], 6);
  const auto leaves = system.spawn_group(levels[1], 24);

  // leaves[5] is down for rounds [2, 10).
  auto failures = std::make_unique<sim::ChurnFailures>(system.process_count());
  failures->add_downtime(leaves[5], {2, 10});
  system.set_failure_model(std::move(failures));

  system.run_rounds(3);
  const auto during_outage = system.publish(leaves[0]);
  system.run_rounds(17);  // now at round 20, leaves[5] long recovered
  EXPECT_FALSE(system.delivered_set(during_outage).contains(leaves[5]));

  const auto after_recovery = system.publish(leaves[1]);
  system.run_rounds(20);
  EXPECT_TRUE(system.delivered_set(after_recovery).contains(leaves[5]));
}

TEST(Churn, SystemSurvivesRandomChurn) {
  topics::TopicDag hierarchy;
  const auto levels = topics::make_linear_hierarchy(hierarchy, 2);
  DamSystem::Config config;
  config.seed = 33;
  config.auto_wire_super_tables = true;
  DamSystem system(hierarchy, config);
  system.spawn_group(levels[0], 10);
  system.spawn_group(levels[1], 20);
  const auto leaves = system.spawn_group(levels[2], 40);

  util::Rng rng(77);
  auto churn = std::make_unique<sim::ChurnFailures>(system.process_count());
  // Every process suffers one 10-round outage somewhere in [0, 60).
  for (std::uint32_t p = 0; p < system.process_count(); ++p) {
    const sim::Round start = rng.below(60);
    churn->add_downtime(ProcessId{p}, {start, start + 10});
  }
  const auto* churn_ptr = churn.get();
  system.set_failure_model(std::move(churn));
  system.run_rounds(70);  // churn phase over; everyone recovered

  // Find an alive publisher and publish.
  ProcessId publisher = leaves[0];
  ASSERT_TRUE(churn_ptr->alive(publisher, 70));
  const auto event = system.publish(publisher);
  system.run_rounds(30);
  EXPECT_GT(system.delivery_ratio(event), 0.85);
  EXPECT_EQ(system.metrics().parasite_deliveries(), 0u);
}

}  // namespace
}  // namespace dam::core

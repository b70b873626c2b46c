// Newsroom under churn: cold-start bootstrap + crash/recovery.
//
// A newsgroup-style hierarchy (the paper's motivating NNTP comparison)
// where nothing is pre-wired: every process finds its supergroup through
// FIND_SUPER_CONTACT (Fig. 4), and the maintenance task (Fig. 6) repairs
// supertopic tables as editors crash and recover. Publishes before, during
// and after a churn wave and reports delivery per phase.
//
//   $ ./newsroom_churn
#include <iostream>
#include <memory>

#include "core/system.hpp"
#include "topics/dag.hpp"
#include "util/csv.hpp"

int main() {
  using namespace dam;

  topics::TopicDag hierarchy;
  const auto news = topics::intern_path(hierarchy, ".news");
  const auto world = topics::intern_path(hierarchy, ".news.world");
  const auto europe = topics::intern_path(hierarchy, ".news.world.europe");

  core::DamSystem::Config config;
  config.seed = 11;
  config.neighborhood_degree = 6;
  config.node.params.psucc = 0.95;
  core::DamSystem system(hierarchy, config);  // NO auto-wiring: cold start

  const auto editors = system.spawn_group(news, 12);
  const auto world_desk = system.spawn_group(world, 24);
  const auto europe_desk = system.spawn_group(europe, 48);

  // Phase 1 — bootstrap: processes must discover their supergroups through
  // the overlay.
  system.run_rounds(40);
  std::size_t linked = 0;
  for (auto p : europe_desk) {
    if (!system.node(p).super_table().empty()) ++linked;
  }
  std::cout << "after cold-start bootstrap: " << linked << "/"
            << europe_desk.size()
            << " europe-desk processes hold supergroup contacts\n";

  auto report = [&](const char* phase, net::EventId event) {
    auto count = [&](const std::vector<topics::ProcessId>& group) {
      std::size_t got = 0;
      for (auto p : group) {
        if (system.delivered_set(event).contains(p)) ++got;
      }
      return got;
    };
    std::cout << phase << ": europe " << count(europe_desk) << "/"
              << europe_desk.size() << ", world " << count(world_desk) << "/"
              << world_desk.size() << ", editors " << count(editors) << "/"
              << editors.size() << "\n";
  };

  // Phase 2 — healthy publish.
  const auto healthy = system.publish(europe_desk[0]);
  system.run_rounds(30);
  report("healthy publish      ", healthy);

  // Phase 3 — churn wave: a third of the world desk (the intergroup relay
  // layer for europe events!) goes down for 30 rounds.
  auto churn = std::make_unique<sim::ChurnFailures>(system.process_count());
  const auto now = system.now();
  for (std::size_t i = 0; i < world_desk.size(); i += 3) {
    churn->add_downtime(world_desk[i], {now, now + 30});
  }
  system.set_failure_model(std::move(churn));

  const auto during = system.publish(europe_desk[1]);
  system.run_rounds(30);
  report("during churn         ", during);

  // Phase 4 — after recovery, maintenance has healed the supertopic
  // tables; delivery returns to full strength.
  system.run_rounds(10);
  const auto after = system.publish(europe_desk[2]);
  system.run_rounds(30);
  report("after recovery       ", after);

  std::cout << "parasite deliveries: "
            << system.metrics().parasite_deliveries() << " (always 0)\n";
  std::cout << "control messages (membership + bootstrap + repair): "
            << system.metrics().timeline().totals().control_sends << "\n";
  std::cout << "\nNo server collected these subscriptions (contrast with\n"
            << "NNTP, Sec. II-A): membership, supergroup discovery and\n"
            << "repair all ran peer-to-peer.\n";
  return 0;
}

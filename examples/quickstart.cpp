// Quickstart: the smallest end-to-end daMulticast program.
//
// Builds a 3-level topic hierarchy, spawns subscribers, publishes one
// event at the bottom, and shows who received what. Demonstrates the two
// headline properties: events flow bottom-up to every interested process,
// and nobody receives events of topics they did not subscribe to.
//
//   $ ./quickstart
#include <iostream>

#include "core/system.hpp"
#include "topics/dag.hpp"

int main() {
  using namespace dam;

  // 1. Topic hierarchy: ".conf" ⊃ ".conf.dsn04" ⊃ ".conf.dsn04.reviewers".
  topics::TopicDag hierarchy;
  const auto conf = topics::intern_path(hierarchy, ".conf");
  const auto dsn04 = topics::intern_path(hierarchy, ".conf.dsn04");
  const auto reviewers =
      topics::intern_path(hierarchy, ".conf.dsn04.reviewers");

  // 2. A system hosting the processes. auto_wire_super_tables short-cuts
  //    the bootstrap (Fig. 4 lines 5-8: contacts provided out of band);
  //    see newsroom_churn.cpp for the full FIND_SUPER_CONTACT path.
  core::DamSystem::Config config;
  config.seed = 2026;
  config.auto_wire_super_tables = true;
  core::DamSystem system(hierarchy, config);

  // 3. Subscribers. Each process is interested in one topic — and thereby
  //    in all its subtopics' events (Sec. III-A).
  const auto conf_subs = system.spawn_group(conf, 5);
  const auto dsn_subs = system.spawn_group(dsn04, 10);
  const auto rev_subs = system.spawn_group(reviewers, 20);
  system.run_rounds(3);  // a little membership gossip

  // 4. A reviewer publishes; the event climbs reviewers -> dsn04 -> conf.
  std::cout << "publishing on " << hierarchy.name(reviewers) << " from process "
            << rev_subs[0].value << "\n";
  const auto event = system.publish(rev_subs[0]);
  system.run_rounds(25);

  // 5. Outcome.
  auto count = [&](const std::vector<topics::ProcessId>& group) {
    std::size_t delivered = 0;
    for (auto p : group) {
      if (system.delivered_set(event).contains(p)) ++delivered;
    }
    return delivered;
  };
  std::cout << "delivered: " << count(rev_subs) << "/20 reviewers, "
            << count(dsn_subs) << "/10 dsn04 subscribers, "
            << count(conf_subs) << "/5 conf subscribers\n";
  std::cout << "parasite deliveries: "
            << system.metrics().parasite_deliveries() << " (always 0)\n";

  // 6. And the reverse direction never happens: a ".conf" announcement
  //    stays OUT of the reviewers' mailboxes.
  const auto announcement = system.publish(conf_subs[0]);
  system.run_rounds(20);
  std::size_t reviewer_got_it = 0;
  for (auto p : rev_subs) {
    if (system.delivered_set(announcement).contains(p)) ++reviewer_got_it;
  }
  std::cout << "conf-level announcement reached " << reviewer_got_it
            << "/20 reviewers (reviewers did not subscribe to .conf)\n";

  const auto totals = system.metrics().timeline().totals();
  std::cout << "event messages sent in total: "
            << totals.event_sends + totals.inter_sends << "\n";
  return 0;
}

// Stock ticker: a realistic multi-branch hierarchy under lossy channels.
//
// Market data flows through ".market.stocks.tech", ".market.stocks.energy"
// and ".market.bonds". Desk subscribers sit at the leaves; risk systems
// subscribe mid-tree; compliance subscribes at the root of the market
// subtree. The example publishes a burst of tick events per branch and
// reports per-audience delivery, message cost, and the isolation between
// sibling branches.
//
//   $ ./stock_ticker
#include <iostream>
#include <vector>

#include "core/system.hpp"
#include "topics/dag.hpp"
#include "util/csv.hpp"

int main() {
  using namespace dam;

  topics::TopicDag hierarchy;
  const auto market = topics::intern_path(hierarchy, ".market");
  const auto stocks = topics::intern_path(hierarchy, ".market.stocks");
  const auto tech = topics::intern_path(hierarchy, ".market.stocks.tech");
  const auto energy = topics::intern_path(hierarchy, ".market.stocks.energy");
  const auto bonds = topics::intern_path(hierarchy, ".market.bonds");

  core::DamSystem::Config config;
  config.seed = 7;
  config.auto_wire_super_tables = true;
  config.node.params.psucc = 0.9;  // lossy market feed links
  core::DamSystem system(hierarchy, config);

  const auto compliance = system.spawn_group(market, 8);     // sees all
  const auto risk = system.spawn_group(stocks, 15);          // all stocks
  const auto tech_desks = system.spawn_group(tech, 40);
  const auto energy_desks = system.spawn_group(energy, 35);
  const auto bond_desks = system.spawn_group(bonds, 25);
  system.run_rounds(5);

  struct Audience {
    const char* name;
    const std::vector<topics::ProcessId>* members;
  };
  const std::vector<Audience> audiences{{"compliance(.market)", &compliance},
                                        {"risk(.stocks)", &risk},
                                        {"tech desks", &tech_desks},
                                        {"energy desks", &energy_desks},
                                        {"bond desks", &bond_desks}};

  auto publish_burst = [&](topics::TopicId topic,
                           const std::vector<topics::ProcessId>& publishers,
                           int events) {
    std::vector<net::EventId> ids;
    for (int i = 0; i < events; ++i) {
      ids.push_back(system.publish(publishers[i % publishers.size()]));
      system.run_rounds(2);
    }
    system.run_rounds(25);
    std::cout << "\n--- burst of " << events << " events on "
              << hierarchy.name(topic) << " ---\n";
    util::ConsoleTable table({"audience", "avg delivered", "interested?"});
    for (const auto& audience : audiences) {
      double sum = 0.0;
      for (const auto& id : ids) {
        std::size_t got = 0;
        for (auto p : *audience.members) {
          if (system.delivered_set(id).contains(p)) ++got;
        }
        sum += static_cast<double>(got) /
               static_cast<double>(audience.members->size());
      }
      const bool interested = system.registry().interested_in(
          (*audience.members)[0], topic);
      table.row(audience.name,
                util::fixed(sum / static_cast<double>(ids.size()), 3),
                interested ? "yes" : "no");
    }
    table.print(std::cout);
  };

  publish_burst(tech, tech_desks, 5);
  publish_burst(energy, energy_desks, 5);
  publish_burst(bonds, bond_desks, 5);

  std::cout << "\nparasite deliveries across all bursts: "
            << system.metrics().parasite_deliveries() << " (always 0)\n";
  const auto totals = system.metrics().timeline().totals();
  std::cout << "total event messages: "
            << totals.event_sends + totals.inter_sends
            << ", control messages: " << totals.control_sends << "\n";
  std::cout << "\nNote how tech ticks reach risk and compliance (supertopic\n"
            << "subscribers) but never the energy or bond desks — without\n"
            << "any broker or per-subtopic membership at the upper layers.\n";
  return 0;
}

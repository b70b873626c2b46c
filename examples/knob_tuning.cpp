// Knob tuning: choosing (c, g, a, z) per topic.
//
// The paper exposes, per topic, the trade between message complexity and
// reliability (Sec. VI-D). This example walks an operator through tuning a
// hierarchy where the bottom topic is high-volume (wants few messages) and
// the root is critical (wants reliability), using the analysis formulas to
// predict and the simulator to verify.
//
//   $ ./knob_tuning
#include <iostream>

#include "analysis/formulas.hpp"
#include "core/frozen_sim.hpp"
#include "sim/scenario.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

int main() {
  using namespace dam;

  std::cout << "Scenario: S = {20 (root, critical), 200, 2000 (bulk)},\n"
               "lossy channels psucc = 0.7. We compare three configurations.\n";

  struct Configuration {
    const char* name;
    core::TopicParams bulk;    // bottom topic
    core::TopicParams middle;
    core::TopicParams root;
  };

  core::TopicParams cheap;     // minimal messaging
  cheap.c = 1.0;
  cheap.g = 1.0;
  cheap.a = 1.0;
  cheap.z = 1;
  cheap.tau = 0;
  cheap.psucc = 0.7;

  core::TopicParams paper;     // the paper's defaults
  paper.psucc = 0.7;

  core::TopicParams critical;  // spend messages for reliability
  critical.c = 8.0;
  critical.g = 15.0;
  critical.a = 3.0;
  critical.z = 3;
  critical.psucc = 0.7;

  // The tiered insight: the bulk topic's INTRA gossip dominates the bill
  // (S·(ln S + c) messages), while its INTERGROUP knobs (g, a, z) cost at
  // most g·a extra messages. So keep bulk's c minimal but its hop knobs
  // generous.
  core::TopicParams bulk_tiered = cheap;
  bulk_tiered.g = 15.0;
  bulk_tiered.a = 3.0;
  bulk_tiered.z = 3;

  const Configuration configurations[] = {
      {"all-cheap", cheap, cheap, cheap},
      {"paper defaults", paper, paper, paper},
      {"tiered (cheap bulk, critical root)", bulk_tiered, paper, critical},
  };

  util::ConsoleTable table({"configuration", "msgs/publication",
                            "T0 delivered frac", "P(all T0)",
                            "predicted pit T2->T1"});
  constexpr int kRuns = 200;
  sim::Scenario chain =
      sim::make_linear_scenario("tiered", "", {20, 200, 2000});
  const topics::TopicDag dag = chain.build_dag();
  for (const auto& configuration : configurations) {
    chain.params = {configuration.root, configuration.middle,
                    configuration.bulk};
    util::Accumulator messages;
    util::Accumulator t0_fraction;
    util::Proportion all_t0;
    for (int run = 0; run < kRuns; ++run) {
      core::FrozenSimConfig config = chain.config_for(dag, 1.0, run);
      config.seed = 0x7E + static_cast<std::uint64_t>(run) * 59;
      const auto result = core::run_frozen_simulation(config);
      messages.add(static_cast<double>(result.total_messages));
      t0_fraction.add(result.groups[0].delivery_ratio());
      all_t0.add(result.groups[0].all_alive_delivered);
    }
    const auto& bulk = configuration.bulk;
    const double hop = analysis::pit_binomial(
        2000, bulk.psel(2000), 1.0, bulk.pa(), bulk.z, bulk.psucc);
    table.row(configuration.name, util::fixed(messages.mean(), 0),
              util::fixed(t0_fraction.mean(), 3),
              util::fixed(all_t0.estimate(), 3), util::fixed(hop, 3));
  }
  table.print(std::cout);

  std::cout
      << "\nReading the table: 'all-cheap' saves ~a third of the messages\n"
         "but the root group misses most events. 'tiered' recovers nearly\n"
         "all of the root reliability for a handful of extra messages: the\n"
         "bulk topic keeps its cheap intra fanout (the dominant cost,\n"
         "S·(ln S + c)) while its intergroup knobs (g, a) — costing at most\n"
         "g·a ≈ 45 messages — are turned up, and the tiny root group runs\n"
         "hot. That is exactly the per-topic trade-off the paper's\n"
         "abstract promises.\n";

  std::cout << "\nAnalytical guardrails (Appendix): to match a flat\n"
               "broadcast's reliability with t=3 and pit as measured, the\n"
               "fanout constant c must not exceed "
            << util::fixed(analysis::c_upper_vs_broadcast(3, 0.999), 2)
            << " (pit=0.999).\n";
  return 0;
}

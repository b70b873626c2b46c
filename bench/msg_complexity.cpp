// Section VI-E.1 — message complexity comparison (analysis "table").
//
// For events published at every level of the paper scenario, measures the
// total number of event messages for daMulticast and the three baselines,
// next to the closed-form predictions. Expected ordering:
//   * daMulticast ≈ multicast(b) ≈ O(S_Tmax ln S_Tmax), both scale with the
//     audience of the event;
//   * broadcast(a) always pays O(n ln n) regardless of the audience;
//   * hierarchical(c) likewise floods everyone (plus parasites).
#include <iostream>

#include "analysis/formulas.hpp"
#include "baselines/broadcast.hpp"
#include "baselines/hierarchical.hpp"
#include "baselines/multicast.hpp"
#include "bench_common.hpp"
#include "core/frozen_sim.hpp"
#include "sim/scenario.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace dam;
  bench::CsvSink csv(argc, argv);
  bench::print_title(
      "Message complexity: daMulticast vs baselines (Sec. VI-E.1)",
      "total event messages per publication, paper scenario "
      "S={10,100,1000},\nmean over runs; 'pred' = closed-form analysis; "
      "'parasites' = deliveries\nto processes not interested in the event");

  constexpr int kRuns = 40;
  util::ConsoleTable table({"publish", "daM", "daM pred", "mcast(b)",
                            "mcast pred", "bcast(a)", "bcast pred", "hier(c)",
                            "hier pred", "bcast parasites",
                            "hier parasites"});
  csv.header({"publish_level", "dam", "dam_pred", "mcast", "mcast_pred",
              "bcast", "bcast_pred", "hier", "hier_pred", "bcast_parasites",
              "hier_parasites"});

  const std::vector<std::size_t> sizes{10, 100, 1000};
  const core::TopicParams params;
  const baselines::HierarchicalConfig hier_config;
  const sim::Scenario chain = sim::make_linear_scenario("paper", "", sizes);
  const topics::TopicDag dag = chain.build_dag();

  for (std::size_t level = 0; level < sizes.size(); ++level) {
    util::Accumulator dam;
    util::Accumulator mcast;
    util::Accumulator bcast;
    util::Accumulator hier;
    util::Accumulator bcast_parasites;
    util::Accumulator hier_parasites;
    for (int run = 0; run < kRuns; ++run) {
      // One cell for daMulticast and every baseline.
      core::FrozenSimConfig config = chain.config_for(dag, 1.0, run);
      config.publish_topic =
          topics::DagTopicId{static_cast<std::uint32_t>(level)};
      config.seed = 0xA1 + static_cast<std::uint64_t>(run) * 131 + level;
      dam.add(static_cast<double>(
          core::run_frozen_simulation(config).total_messages));
      mcast.add(
          static_cast<double>(baselines::run_multicast(config).messages_sent));
      const auto bcast_result = baselines::run_broadcast(config);
      bcast.add(static_cast<double>(bcast_result.messages_sent));
      bcast_parasites.add(
          static_cast<double>(bcast_result.parasite_deliveries));
      const auto hier_result =
          baselines::run_hierarchical(config, hier_config);
      hier.add(static_cast<double>(hier_result.messages_sent));
      hier_parasites.add(static_cast<double>(hier_result.parasite_deliveries));
    }
    // Closed forms. For the publication chain we only count the event's
    // own level and everything above it (the audience).
    std::vector<std::size_t> chain(sizes.begin(),
                                   sizes.begin() + static_cast<long>(level) + 1);
    const double dam_pred = analysis::dam_total_messages(
        chain, params.c, params.g, params.a, params.z, params.psucc);
    const double mcast_pred = analysis::multicast_total_messages(chain,
                                                                 params.c);
    const double bcast_pred =
        analysis::broadcast_total_messages(1110, params.c);
    const double hier_pred = analysis::hierarchical_total_messages(
        hier_config.group_count, 1110 / hier_config.group_count,
        hier_config.c1, hier_config.c2);

    // Built with += rather than operator+ to sidestep GCC's -Wrestrict
    // false positive on inlined string concatenation (GCC bug 105329).
    std::string level_name = "T";
    level_name += std::to_string(level);
    table.row(level_name, util::fixed(dam.mean(), 0),
              util::fixed(dam_pred, 0), util::fixed(mcast.mean(), 0),
              util::fixed(mcast_pred, 0), util::fixed(bcast.mean(), 0),
              util::fixed(bcast_pred, 0), util::fixed(hier.mean(), 0),
              util::fixed(hier_pred, 0),
              util::fixed(bcast_parasites.mean(), 0),
              util::fixed(hier_parasites.mean(), 0));
    csv.row(level, dam.mean(), dam_pred, mcast.mean(), mcast_pred,
            bcast.mean(), bcast_pred, hier.mean(), hier_pred,
            bcast_parasites.mean(), hier_parasites.mean());
  }
  table.print(std::cout);
  std::cout
      << "\nexpected: daM and mcast(b) shrink with the audience (T0 events\n"
         "cost ~100x less than T2 events); bcast(a) and hier(c) stay at\n"
         "O(n ln n) and deliver parasites for T0/T1 events; daM parasites\n"
         "are zero by construction (asserted in the test suite).\n";
  return 0;
}

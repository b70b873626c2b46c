// Cross-engine agreement: the frozen-table paper engine (core/frozen_sim)
// and the full message-passing system (core/system) implement the same
// protocol decisions, so their aggregate laws must agree. Also checks the
// frozen engine against the paper's closed-form analysis where available.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/formulas.hpp"
#include "core/frozen_sim.hpp"
#include "core/system.hpp"
#include "frozen_chain.hpp"
#include "topics/hierarchy.hpp"

namespace dam::core {
namespace {

TEST(FigureAgreement, IntergroupMessageLawHoldsInBothEngines) {
  // E[intergroup sends per publication] = S·psel·pa·z = g (with a=1). Use
  // a two-level hierarchy, S_bottom = 200, g = 5.
  constexpr std::size_t kBottom = 200;
  constexpr int kRuns = 60;

  // --- Frozen engine ---
  const testing::Chain chain({20, kBottom});
  double frozen_inter = 0.0;
  for (int run = 0; run < kRuns; ++run) {
    FrozenSimConfig config =
        chain.publish_at(1, 4000 + static_cast<std::uint64_t>(run), 1.0);
    frozen_inter += static_cast<double>(
        run_frozen_simulation(config).groups[1].inter_sent);
  }
  frozen_inter /= kRuns;

  // --- Dynamic engine ---
  double dynamic_inter = 0.0;
  for (int run = 0; run < kRuns; ++run) {
    topics::TopicHierarchy hierarchy;
    const auto levels = topics::make_linear_hierarchy(hierarchy, 1);
    DamSystem::Config config;
    config.seed = 7000 + static_cast<std::uint64_t>(run);
    config.auto_wire_super_tables = true;
    config.node.params.psucc = 1.0;
    DamSystem system(hierarchy, config);
    system.spawn_group(levels[0], 20);
    const auto leaves = system.spawn_group(levels[1], kBottom);
    system.run_rounds(3);
    system.publish(leaves[0]);
    system.run_rounds(20);
    dynamic_inter += static_cast<double>(
        system.metrics().group(levels[1]).inter_sent);
  }
  dynamic_inter /= kRuns;

  const double expected = 5.0;  // g
  EXPECT_NEAR(frozen_inter, expected, 1.2);
  EXPECT_NEAR(dynamic_inter, expected, 1.2);
  EXPECT_NEAR(frozen_inter, dynamic_inter, 1.5);
}

TEST(FigureAgreement, IntraMessageCountsAgreeAcrossEngines) {
  constexpr std::size_t kBottom = 300;
  constexpr int kRuns = 25;

  const testing::Chain chain({10, kBottom});
  double frozen_intra = 0.0;
  for (int run = 0; run < kRuns; ++run) {
    FrozenSimConfig config =
        chain.publish_at(1, 100 + static_cast<std::uint64_t>(run), 1.0);
    frozen_intra += static_cast<double>(
        run_frozen_simulation(config).groups[1].intra_sent);
  }
  frozen_intra /= kRuns;

  double dynamic_intra = 0.0;
  for (int run = 0; run < kRuns; ++run) {
    topics::TopicHierarchy hierarchy;
    const auto levels = topics::make_linear_hierarchy(hierarchy, 1);
    DamSystem::Config config;
    config.seed = 300 + static_cast<std::uint64_t>(run);
    config.auto_wire_super_tables = true;
    config.node.params.psucc = 1.0;
    DamSystem system(hierarchy, config);
    system.spawn_group(levels[0], 10);
    const auto leaves = system.spawn_group(levels[1], kBottom);
    system.run_rounds(3);
    system.publish(leaves[0]);
    system.run_rounds(25);
    dynamic_intra += static_cast<double>(
        system.metrics().group(levels[1]).intra_sent);
  }
  dynamic_intra /= kRuns;

  // Both should sit near S · fanout(S).
  const TopicParams params;
  const double predicted =
      static_cast<double>(kBottom) * static_cast<double>(params.fanout(kBottom));
  EXPECT_NEAR(frozen_intra, predicted, predicted * 0.15);
  EXPECT_NEAR(dynamic_intra, predicted, predicted * 0.15);
}

TEST(FigureAgreement, FrozenReliabilityMatchesPitFormula) {
  // Probability that at least one intergroup message ARRIVES in the
  // supergroup: pit = 1 - (1-psucc)^{nbSusc·pa·z}. The infected fraction
  // pi varies per run (the epidemic sometimes fizzles at psucc=0.3), so we
  // compare the measured frequency against the MEAN of the per-run
  // predictions pit(pi_run) — same seeds, no Jensen gap.
  TopicParams params;
  params.psucc = 0.3;  // lossy, so pit is visibly below 1
  params.g = 2.0;
  constexpr int kRuns = 600;
  const testing::Chain chain({30, 200});
  int propagated = 0;
  double predicted_paper_sum = 0.0;
  double predicted_exact_sum = 0.0;
  for (int run = 0; run < kRuns; ++run) {
    FrozenSimConfig config =
        chain.config(5000 + static_cast<std::uint64_t>(run));
    config.params = {params};
    const auto result = run_frozen_simulation(config);
    if (result.groups[0].inter_received > 0) ++propagated;
    const double pi_run = result.groups[1].delivery_ratio();
    predicted_paper_sum += analysis::pit(200, params.psel(200), pi_run,
                                         params.pa(), params.z, params.psucc);
    predicted_exact_sum +=
        analysis::pit_binomial(200, params.psel(200), pi_run, params.pa(),
                               params.z, params.psucc);
  }
  const double measured = static_cast<double>(propagated) / kRuns;
  const double predicted_exact = predicted_exact_sum / kRuns;
  const double predicted_paper = predicted_paper_sum / kRuns;
  // The exact per-process formula nails the measurement.
  EXPECT_NEAR(measured, predicted_exact, 0.05);
  // The paper's expected-count exponent overestimates in this very lossy,
  // few-elections regime, but stays in the same ballpark.
  EXPECT_NEAR(measured, predicted_paper, 0.20);
  EXPECT_GE(predicted_paper, predicted_exact - 1e-9);
}

TEST(FigureAgreement, Figure9ShapeAtLeastOneIntergroupMessageSurvives) {
  // The paper's Fig. 9 takeaway: "even if almost half of the processes
  // fail, at least one event is sent to the group of processes interested
  // in the supertopic". With ~55% alive, the expected number of
  // T2->T1 sends is ≈ S_alive·pi·psel·pa·z ≈ 2.5, so at least one send
  // occurs in ~92% of runs (Poisson tail).
  int runs_with_send = 0;
  constexpr int kRuns = 200;
  const testing::Chain chain;
  for (int run = 0; run < kRuns; ++run) {
    const auto result = run_frozen_simulation(
        chain.config(8000 + static_cast<std::uint64_t>(run), 0.55));
    if (result.groups[2].inter_sent > 0) ++runs_with_send;
  }
  EXPECT_GT(runs_with_send, kRuns * 3 / 4);
}

}  // namespace
}  // namespace dam::core

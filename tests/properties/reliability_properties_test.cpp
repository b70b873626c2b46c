// Property sweeps over the reliability knobs (c, g, a, z) using the
// frozen-table paper engine — checks the *monotonicity* claims of Sec. VI-D
// and the agreement between measurement and Eq. (1).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "analysis/formulas.hpp"
#include "core/frozen_sim.hpp"
#include "frozen_chain.hpp"

namespace dam::core {
namespace {

/// One publication in the bottom group of a linear chain with `sizes`
/// (index 0 = root), every level running `params`.
FrozenRunResult run_chain(std::vector<std::size_t> sizes, TopicParams params,
                          double alive_fraction, std::uint64_t seed) {
  const testing::Chain chain(std::move(sizes));
  FrozenSimConfig config = chain.config(seed, alive_fraction);
  config.params = {params};
  return run_frozen_simulation(config);
}

double measured_root_reliability(TopicParams params, double alive_fraction,
                                 int runs, std::uint64_t seed_base) {
  // Fraction of runs in which ALL alive root-group members delivered.
  int successes = 0;
  for (int run = 0; run < runs; ++run) {
    const auto result =
        run_chain({10, 100, 1000}, params, alive_fraction,
                  seed_base + static_cast<std::uint64_t>(run));
    if (result.groups[0].all_alive_delivered) ++successes;
  }
  return static_cast<double>(successes) / runs;
}

class FanoutSweep : public ::testing::TestWithParam<double> {};

TEST_P(FanoutSweep, BottomGroupDeliveryGrowsWithC) {
  // Within the bottom group, a larger c means more redundancy and a higher
  // delivered fraction, already visible at modest run counts.
  const double c = GetParam();
  TopicParams low;
  low.c = c;
  TopicParams high;
  high.c = c + 3.0;
  double low_sum = 0.0;
  double high_sum = 0.0;
  constexpr int kRuns = 40;
  for (int run = 0; run < kRuns; ++run) {
    const std::uint64_t seed = 100 + static_cast<std::uint64_t>(run);
    low_sum +=
        run_chain({10, 100, 400}, low, 0.75, seed).groups[2].delivery_ratio();
    high_sum +=
        run_chain({10, 100, 400}, high, 0.75, seed).groups[2].delivery_ratio();
  }
  EXPECT_GE(high_sum, low_sum - 0.01 * kRuns);
  EXPECT_GT(high_sum / kRuns, 0.5);
}

INSTANTIATE_TEST_SUITE_P(CValues, FanoutSweep,
                         ::testing::Values(0.0, 1.0, 2.0),
                         [](const auto& info) {
                           std::string name = "c";
                           name += std::to_string(static_cast<int>(info.param));
                           return name;
                         });

class IntergroupKnobSweep : public ::testing::TestWithParam<double> {};

TEST_P(IntergroupKnobSweep, LargerGMeansMoreIntergroupMessages) {
  const double g = GetParam();
  TopicParams params;
  params.g = g;
  double inter = 0.0;
  constexpr int kRuns = 120;
  for (int run = 0; run < kRuns; ++run) {
    inter += static_cast<double>(
        run_chain({10, 100, 1000}, params, 1.0,
                  300 + static_cast<std::uint64_t>(run))
            .groups[2]
            .inter_sent);
  }
  inter /= kRuns;
  // Analysis: E[inter_sent] = S·psel·pa·z = g (since pa·z = a = 1).
  EXPECT_NEAR(inter, g, std::max(1.0, g * 0.30));
}

INSTANTIATE_TEST_SUITE_P(GValues, IntergroupKnobSweep,
                         ::testing::Values(1.0, 2.0, 5.0, 10.0, 20.0),
                         [](const auto& info) {
                           std::string name = "g";
                           name += std::to_string(static_cast<int>(info.param));
                           return name;
                         });

TEST(ReliabilityTradeoff, LargerAImprovesHopSurvival) {
  // With g=1 (single elected link) and lossy channels, raising a (hitting
  // more supertopic-table entries) raises the chance the hop survives.
  auto root_delivery = [](double a) {
    TopicParams params;
    params.g = 1.0;
    params.a = a;
    params.psucc = 0.5;
    double sum = 0.0;
    constexpr int kRuns = 150;
    for (int run = 0; run < kRuns; ++run) {
      sum += run_chain({10, 100, 300}, params, 1.0,
                       500 + static_cast<std::uint64_t>(run))
                 .groups[0]
                 .delivery_ratio();
    }
    return sum / kRuns;
  };
  const double with_a1 = root_delivery(1.0);
  const double with_a3 = root_delivery(3.0);
  EXPECT_GT(with_a3, with_a1 + 0.02);
}

TEST(ReliabilityTradeoff, Equation1PredictsMeasuredRootReliability) {
  // Healthy system, lossy channels: compare measured all-delivered
  // frequency for the ROOT group against Eq. (1). Channel loss thins the
  // gossip fanout: of the ln(S)+c messages each process sends, only
  // psucc·(ln(S)+c) arrive, so the EFFECTIVE constant is
  //   c_eff = psucc·(ln S + c) - ln S,
  // which is what e^{-e^{-c}} must be evaluated at (the paper's Eq. 1
  // leaves psucc inside pit only; this correction is the standard way to
  // fold link loss into the Erdős–Rényi argument).
  TopicParams params;  // paper defaults, psucc = 0.85
  auto c_eff = [&](std::size_t S) {
    const double ln_s = std::log(static_cast<double>(S));
    return params.psucc * (ln_s + params.c) - ln_s;
  };
  const double hop_t2 =
      analysis::pit(1000, params.psel(1000), 1.0, params.pa(), params.z,
                    params.psucc);
  const double hop_t1 =
      analysis::pit(100, params.psel(100), 1.0, params.pa(), params.z,
                    params.psucc);
  const double predicted = analysis::dam_reliability({
      {c_eff(1000), hop_t2},  // bottom group T2
      {c_eff(100), hop_t1},   // T1
      {c_eff(10), 1.0},       // root
  });
  const double measured = measured_root_reliability(params, 1.0, 200, 900);
  EXPECT_GT(predicted, 0.85);
  EXPECT_GT(measured, 0.80);
  EXPECT_NEAR(measured, predicted, 0.07);
}

TEST(ReliabilityTradeoff, ReliabilityDropsAcrossLevels) {
  // Fig. 10's ordering: delivery fraction T2 >= T1 >= T0 on average (the
  // event must survive more hops to reach higher groups).
  double t2 = 0.0;
  double t1 = 0.0;
  double t0 = 0.0;
  constexpr int kRuns = 100;
  for (int run = 0; run < kRuns; ++run) {
    const auto result = run_chain({10, 100, 1000}, TopicParams{}, 0.55,
                                  1300 + static_cast<std::uint64_t>(run));
    t2 += result.groups[2].delivery_ratio();
    t1 += result.groups[1].delivery_ratio();
    t0 += result.groups[0].delivery_ratio();
  }
  EXPECT_GE(t2, t1 - 0.02 * kRuns);
  EXPECT_GE(t1, t0 - 0.02 * kRuns);
}

TEST(ReliabilityTradeoff, MoreFailuresLowerReliability) {
  TopicParams params;
  const double healthy = measured_root_reliability(params, 0.9, 60, 2000);
  const double degraded = measured_root_reliability(params, 0.35, 60, 2000);
  EXPECT_GE(healthy, degraded);
}

}  // namespace
}  // namespace dam::core

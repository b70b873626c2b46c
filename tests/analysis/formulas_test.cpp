#include "analysis/formulas.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace dam::analysis {
namespace {

constexpr double kPaperPsucc = 0.85;

TEST(MessageComplexity, IntraGroup) {
  EXPECT_NEAR(intra_group_messages(1000, 5.0), 1000.0 * (std::log(1000.0) + 5.0),
              1e-9);
  EXPECT_DOUBLE_EQ(intra_group_messages(1, 5.0), 5.0);  // ln term vanishes
}

TEST(MessageComplexity, IntergroupMatchesPaperSetting) {
  // S=1000, psel=5/1000, pa=1/3, z=3, psucc=0.85 -> 4.25.
  EXPECT_NEAR(intergroup_messages(1000, 0.005, 1.0 / 3.0, 3, kPaperPsucc),
              4.25, 1e-12);
}

TEST(MessageComplexity, DamTotalSumsLevels) {
  const std::vector<std::size_t> sizes{10, 100, 1000};
  const double total = dam_total_messages(sizes, 5.0, 5.0, 1.0, 3, 1.0);
  double expected = 0.0;
  for (std::size_t s : sizes) expected += intra_group_messages(s, 5.0);
  expected += 5.0;  // T1 -> T0: 100·(5/100)·(1/3)·3·1
  expected += 5.0;  // T2 -> T1: 1000·(5/1000)·(1/3)·3·1
  EXPECT_NEAR(total, expected, 1e-9);
}

TEST(MessageComplexity, BroadcastDominatesDamForLargePopulations) {
  // n >> S_Tmax: broadcast n·ln(n) exceeds daMulticast's per-chain total.
  const std::vector<std::size_t> sizes{10, 100, 1000};
  const double dam = dam_total_messages(sizes, 5.0, 5.0, 1.0, 3, 1.0);
  const double bcast = broadcast_total_messages(100000, 5.0);
  EXPECT_GT(bcast, dam);
}

TEST(MessageComplexity, HierarchicalFormula) {
  EXPECT_NEAR(hierarchical_total_messages(16, 70, 5.0, 5.0),
              16.0 * 70.0 * (std::log(16.0) + std::log(70.0) + 10.0), 1e-9);
}

TEST(Memory, DamFormula) {
  EXPECT_NEAR(dam_memory(1000, 5.0, 3), std::log(1000.0) + 8.0, 1e-12);
  EXPECT_DOUBLE_EQ(dam_memory(1, 5.0, 0), 5.0);  // root process, no sTable
}

TEST(Memory, BroadcastFormula) {
  EXPECT_NEAR(broadcast_memory_per_process(1110, 5.0),
              std::log(1110.0) + 5.0, 1e-12);
  EXPECT_DOUBLE_EQ(broadcast_memory_per_process(1, 5.0), 5.0);
}

TEST(Memory, MulticastGrowsWithTableCount) {
  const std::vector<std::size_t> sizes{10, 100, 1000};
  // Bottom-level subscriber: one table (its own group, cumulative 1110).
  const double bottom = multicast_memory_per_process(sizes, 2, 5.0);
  EXPECT_NEAR(bottom, std::log(1110.0) + 5.0, 1e-9);
  // Root subscriber: three tables (sizes 10, 110, 1110).
  const double root = multicast_memory_per_process(sizes, 0, 5.0);
  EXPECT_NEAR(root,
              (std::log(10.0) + 5.0) + (std::log(110.0) + 5.0) +
                  (std::log(1110.0) + 5.0),
              1e-9);
  EXPECT_GT(root, bottom);
}

TEST(Memory, MulticastRejectsBadLevel) {
  EXPECT_THROW((void)multicast_memory_per_process({10, 100}, 5, 5.0),
               std::invalid_argument);
}

TEST(Memory, HierarchicalFormula) {
  EXPECT_NEAR(hierarchical_memory_per_process(16, 70, 5.0, 5.0),
              std::log(70.0) + 5.0 + std::log(16.0) + 5.0, 1e-12);
  // Degenerate single group: ln terms vanish gracefully.
  EXPECT_DOUBLE_EQ(hierarchical_memory_per_process(1, 1, 2.0, 3.0), 5.0);
}

TEST(Reliability, GossipReliabilityCurve) {
  // e^{-e^{-c}}: c=0 -> 1/e ≈ 0.3679; c=5 -> 0.99329; monotone in c.
  EXPECT_NEAR(gossip_reliability(0.0), std::exp(-1.0), 1e-12);
  EXPECT_NEAR(gossip_reliability(5.0), 0.99329, 1e-4);
  EXPECT_LT(gossip_reliability(1.0), gossip_reliability(2.0));
}

TEST(Reliability, PitBasics) {
  // Paper setting per hop: S·psel·pi·pa·z = 1000·0.005·1·(1/3)·3 = 5
  // -> pit = 1 - 0.15^5 ≈ 0.999924.
  const double hop = pit(1000, 0.005, 1.0, 1.0 / 3.0, 3, kPaperPsucc);
  EXPECT_NEAR(hop, 1.0 - std::pow(0.15, 5.0), 1e-12);
  // Perfect channels -> certain propagation.
  EXPECT_DOUBLE_EQ(pit(1000, 0.005, 1.0, 1.0 / 3.0, 3, 1.0), 1.0);
  // No susceptible processes -> no propagation.
  EXPECT_DOUBLE_EQ(pit(1000, 0.0, 1.0, 1.0 / 3.0, 3, 0.85), 0.0);
}

TEST(Reliability, PitMonotoneInEverything) {
  const double base = pit(1000, 0.005, 0.9, 1.0 / 3.0, 3, 0.85);
  EXPECT_GT(pit(1000, 0.01, 0.9, 1.0 / 3.0, 3, 0.85), base);   // more links
  EXPECT_GT(pit(1000, 0.005, 1.0, 1.0 / 3.0, 3, 0.85), base);  // more infected
  EXPECT_GT(pit(1000, 0.005, 0.9, 2.0 / 3.0, 3, 0.85), base);  // higher pa
  EXPECT_GT(pit(1000, 0.005, 0.9, 1.0 / 3.0, 3, 0.95), base);  // better links
}

TEST(Reliability, PitBinomialBasics) {
  // No infected processes -> no hop; everyone infected + certain
  // transmission -> certain hop.
  EXPECT_DOUBLE_EQ(pit_binomial(100, 0.5, 0.0, 0.5, 3, 0.9), 0.0);
  EXPECT_DOUBLE_EQ(pit_binomial(100, 1.0, 1.0, 1.0, 3, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(pit_binomial(100, 0.0, 1.0, 1.0, 3, 1.0), 0.0);
}

TEST(Reliability, PitBinomialNeverExceedsPaperPit) {
  // The expected-count exponent of the paper's formula is an upper bound
  // on the exact per-process computation (Jensen on a concave function).
  for (double psel : {0.01, 0.05, 0.2}) {
    for (double psucc : {0.3, 0.6, 0.9}) {
      const double paper = pit(200, psel, 0.8, 1.0 / 3.0, 3, psucc);
      const double exact = pit_binomial(200, psel, 0.8, 1.0 / 3.0, 3, psucc);
      EXPECT_GE(paper, exact - 1e-12)
          << "psel=" << psel << " psucc=" << psucc;
    }
  }
}

TEST(Reliability, PitBinomialConvergesToPaperPitForManyElections) {
  // With many expected elections the two formulas agree closely.
  const double paper = pit(10000, 0.1, 1.0, 1.0, 1, 0.5);
  const double exact = pit_binomial(10000, 0.1, 1.0, 1.0, 1, 0.5);
  EXPECT_NEAR(paper, exact, 1e-3);
}

TEST(Reliability, PitBinomialMonotone) {
  const double base = pit_binomial(500, 0.01, 0.7, 1.0 / 3.0, 3, 0.5);
  EXPECT_GT(pit_binomial(500, 0.02, 0.7, 1.0 / 3.0, 3, 0.5), base);
  EXPECT_GT(pit_binomial(500, 0.01, 0.9, 1.0 / 3.0, 3, 0.5), base);
  EXPECT_GT(pit_binomial(500, 0.01, 0.7, 2.0 / 3.0, 3, 0.5), base);
  EXPECT_GT(pit_binomial(500, 0.01, 0.7, 1.0 / 3.0, 3, 0.7), base);
}

TEST(Reliability, PitBinomialRejectsBadPsucc) {
  EXPECT_THROW((void)pit_binomial(10, 0.5, 1.0, 0.5, 3, -0.1),
               std::invalid_argument);
  EXPECT_THROW((void)pit_binomial(10, 0.5, 1.0, 0.5, 3, 1.1),
               std::invalid_argument);
}

TEST(Reliability, DamReliabilityEquation1) {
  // Three levels, event at the bottom: R = (e^{-e^{-c}})^3 · pit^2.
  const double hop = 0.99;
  const std::vector<LevelSpec> levels{{5.0, hop}, {5.0, hop}, {5.0, 1.0}};
  const double expected =
      std::pow(gossip_reliability(5.0), 3.0) * hop * hop;
  EXPECT_NEAR(dam_reliability(levels), expected, 1e-12);
}

TEST(Reliability, SingleLevelEqualsGossip) {
  // Degenerate case: one topic only — daMulticast == flat gossip.
  EXPECT_DOUBLE_EQ(dam_reliability({{5.0, 0.5}}), gossip_reliability(5.0));
}

TEST(Reliability, HierarchicalFormula) {
  EXPECT_NEAR(hierarchical_reliability(16, 5.0, 5.0),
              std::exp(-16.0 * std::exp(-5.0) - std::exp(-5.0)), 1e-12);
}

TEST(ParityVsMulticast, FeasibleRangeAndC1) {
  const double pit_value = 0.99;
  const double c_max = c_upper_vs_multicast(pit_value);
  EXPECT_NEAR(c_max, -std::log(-std::log(pit_value)), 1e-12);
  // At a feasible c, c1 exists and is >= 0 within the range.
  const double c = c_max * 0.5;
  const double c1 = c1_for_multicast_parity(c, pit_value);
  EXPECT_GE(c1, 0.0);
  // Check it actually equalizes reliabilities: e^{-c1} = e^{-c} - (-ln pit)
  EXPECT_NEAR(std::exp(-c1), std::exp(-c) + std::log(pit_value), 1e-9);
}

TEST(ParityVsMulticast, InfeasibleCThrows) {
  const double pit_value = 0.99;
  const double c_max = c_upper_vs_multicast(pit_value);
  EXPECT_THROW((void)c1_for_multicast_parity(c_max + 1.0, pit_value),
               std::invalid_argument);
}

TEST(ParityVsMulticast, ZBoundGrowsWithDepth) {
  const double pit_value = 0.995;
  const double z3 = z_bound_vs_multicast(3, 1000, 1.0, pit_value);
  const double z5 = z_bound_vs_multicast(5, 1000, 1.0, pit_value);
  EXPECT_GT(z5, z3);
  // t=1: no upper levels; bound reduces to ln(1 + e^c ln pit) <= 0.
  EXPECT_LE(z_bound_vs_multicast(1, 1000, 1.0, pit_value), 0.0);
}

TEST(ParityVsBroadcast, RangeShrinksWithDepth) {
  const double pit_value = 0.99;
  EXPECT_GT(c_upper_vs_broadcast(1, pit_value),
            c_upper_vs_broadcast(3, pit_value));
}

TEST(ParityVsBroadcast, C1Equalizes) {
  const double pit_value = 0.999;
  const std::size_t t = 3;
  const double c = 1.0;
  ASSERT_LT(c, c_upper_vs_broadcast(t, pit_value));
  const double c1 = c1_for_broadcast_parity(c, t, pit_value);
  // Defining equation: t·e^{-c1} - t·ln(pit) = e^{-c}.
  EXPECT_NEAR(static_cast<double>(t) * std::exp(-c1) -
                  static_cast<double>(t) * std::log(pit_value),
              std::exp(-c), 1e-9);
}

TEST(ParityVsBroadcast, ZBoundNeedsLargePopulationGap) {
  const double pit_value = 0.999;
  // z bound ~ ln(n) - ln(S_T) - ln(t) (+ small correction): positive only
  // when n >> S_T · t.
  EXPECT_GT(z_bound_vs_broadcast(100000, 1000, 3, 1.0, pit_value), 0.0);
  EXPECT_LT(z_bound_vs_broadcast(1200, 1000, 3, 1.0, pit_value), 0.0);
}

TEST(ParityVsHierarchical, BandOrdering) {
  const double pit_value = 0.99;
  const std::size_t t = 3;
  const std::size_t N = 16;
  const double lo = c_lower_vs_hierarchical(t, N, pit_value);
  const double hi = c_upper_vs_hierarchical(t, N, pit_value);
  EXPECT_LT(lo, hi);
  const double c = (std::max(lo, 0.0) + hi) / 2.0;
  const double cT = cT_for_hierarchical_parity(c, t, N, pit_value);
  // Defining equation: t·e^{-cT} - t·ln(pit) = (N+1)·e^{-c}.
  EXPECT_NEAR(static_cast<double>(t) * std::exp(-cT) -
                  static_cast<double>(t) * std::log(pit_value),
              (static_cast<double>(N) + 1.0) * std::exp(-c), 1e-9);
  EXPECT_GE(cT, 0.0);
}

TEST(ParityVsHierarchical, ZBoundFinite) {
  const double pit_value = 0.99;
  const double bound = z_bound_vs_hierarchical(16, 3, 2.0, pit_value);
  EXPECT_TRUE(std::isfinite(bound));
  EXPECT_GT(bound, 0.0);  // generous: z up to ~c + 2ln(N) - ln(t)
}

TEST(Guards, RejectBadPit) {
  EXPECT_THROW((void)c_upper_vs_multicast(0.0), std::invalid_argument);
  EXPECT_THROW((void)c_upper_vs_multicast(1.5), std::invalid_argument);
  EXPECT_THROW((void)pit(10, 0.5, 1.0, 0.5, 3, 1.5), std::invalid_argument);
  EXPECT_THROW((void)dam_reliability({}), std::invalid_argument);
}

TEST(Guards, PitOfOneGivesInfiniteHeadroom) {
  // ③ in the appendix: pit = 1 -> c1 == c, i.e. no constraint.
  EXPECT_TRUE(std::isinf(c_upper_vs_multicast(1.0)));
  EXPECT_NEAR(c1_for_multicast_parity(3.0, 1.0), 3.0, 1e-12);
}

}  // namespace
}  // namespace dam::analysis

// Section VI-E.3 + Appendix — trading membership for reliability.
//
// Part 1: the feasibility bands for c (the baselines' fanout constant)
// inside which daMulticast can be tuned to the SAME reliability, and the
// corresponding z bounds under which daMulticast then also wins on memory
// (Eqs. 19, 25, 30).
// Part 2: measured reliability of daMulticast vs Eq. (1) as c sweeps.
#include <cmath>
#include <iostream>

#include "analysis/formulas.hpp"
#include "bench_common.hpp"
#include "core/frozen_sim.hpp"
#include "sim/scenario.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace dam;
  bench::CsvSink csv(argc, argv);

  // --- Part 1: parity bands and z bounds -----------------------------------
  bench::print_title(
      "Reliability parity bands (Appendix, Eqs. 16-30)",
      "average case: t=3, S_T=1000, n=100000, N=16; pit per hop as listed.\n"
      "c range = where daMulticast can match the baseline's reliability;\n"
      "z bound = supertopic-table size below which daM also wins on memory");

  util::ConsoleTable bands({"pit", "vs mcast c<=", "z bound (c=1)",
                            "vs bcast c<=", "z bound (c=1)",
                            "vs hier c in", "z bound (c=1)"});
  csv.header({"pit", "mcast_c_max", "mcast_z_bound", "bcast_c_max",
              "bcast_z_bound", "hier_c_lo", "hier_c_hi", "hier_z_bound"});
  const std::size_t t = 3;
  const std::size_t S_T = 1000;
  const std::size_t n = 100000;
  const std::size_t N = 16;
  for (double hop : {0.9, 0.99, 0.999, 0.9999}) {
    const double mcast_c = analysis::c_upper_vs_multicast(hop);
    const double bcast_c = analysis::c_upper_vs_broadcast(t, hop);
    const double hier_lo = analysis::c_lower_vs_hierarchical(t, N, hop);
    const double hier_hi = analysis::c_upper_vs_hierarchical(t, N, hop);
    const double c_probe = 1.0;
    auto maybe = [&](double upper, double bound) {
      return c_probe <= upper ? util::fixed(bound, 2) : std::string("n/a");
    };
    const double mcast_z =
        c_probe <= mcast_c
            ? analysis::z_bound_vs_multicast(t, S_T, c_probe, hop)
            : 0.0;
    const double bcast_z =
        c_probe <= bcast_c
            ? analysis::z_bound_vs_broadcast(n, S_T, t, c_probe, hop)
            : 0.0;
    // Probe the hierarchical bound at the middle of its feasible band
    // (c = 1 usually sits below the band's lower edge).
    const double hier_probe = (std::max(hier_lo, 0.0) + hier_hi) / 2.0;
    const double hier_z =
        analysis::z_bound_vs_hierarchical(N, t, hier_probe, hop);
    // Built with += rather than operator+ to sidestep GCC's -Wrestrict
    // false positive on inlined string concatenation (GCC bug 105329).
    std::string hier_band = "[";
    hier_band += util::fixed(hier_lo, 2);
    hier_band += ", ";
    hier_band += util::fixed(hier_hi, 2);
    hier_band += "]";
    std::string hier_cell = util::fixed(hier_z, 2);
    hier_cell += " (c=";
    hier_cell += util::fixed(hier_probe, 1);
    hier_cell += ")";
    bands.row(util::fixed(hop, 4), util::fixed(mcast_c, 2),
              maybe(mcast_c, mcast_z), util::fixed(bcast_c, 2),
              maybe(bcast_c, bcast_z), hier_band, hier_cell);
    csv.row(hop, mcast_c, mcast_z, bcast_c, bcast_z, hier_lo, hier_hi,
            hier_z);
  }
  bands.print(std::cout);
  std::cout << "\nexpected: bands widen as pit -> 1 (better intergroup hops\n"
               "leave more reliability headroom to spend on memory).\n";

  // --- Part 2: measured reliability vs Eq. (1) as c sweeps ------------------
  bench::print_title(
      "Measured reliability vs Eq. (1) as c sweeps",
      "paper scenario, lossless channels to isolate the fanout effect;\n"
      "measured = P(every group fully delivered) — Eq. (1)'s measurand;\n"
      "Eq.1(ceil) evaluates e^{-e^{-c}} at the ceil-rounded fanout the\n"
      "implementation actually uses (c_eff = ceil(ln S + c) - ln S)");

  util::ConsoleTable sweep(
      {"c", "measured P(all groups)", "Eq.1 (raw c)", "Eq.1 (ceil c)"});
  constexpr int kRuns = 150;
  sim::Scenario chain =
      sim::make_linear_scenario("paper", "", {10, 100, 1000});
  const topics::TopicDag dag = chain.build_dag();
  for (double c : {0.0, 1.0, 2.0, 3.0, 5.0}) {
    chain.params.front().c = c;
    chain.params.front().psucc = 1.0;
    util::Proportion all_groups;
    for (int run = 0; run < kRuns; ++run) {
      core::FrozenSimConfig config = chain.config_for(dag, 1.0, run);
      config.seed = 0xABC + static_cast<std::uint64_t>(run) * 257 +
                    static_cast<std::uint64_t>(c * 100.0);
      all_groups.add(
          core::run_frozen_simulation(config).all_groups_delivered());
    }
    const double raw = analysis::dam_reliability(
        {{c, 1.0}, {c, 1.0}, {c, 1.0}});  // pit = 1 at psucc = 1
    auto c_eff = [&](std::size_t S) {
      const double ln_s = std::log(static_cast<double>(S));
      return std::ceil(ln_s + c) - ln_s;
    };
    const double ceiled = analysis::dam_reliability(
        {{c_eff(1000), 1.0}, {c_eff(100), 1.0}, {c_eff(10), 1.0}});
    sweep.row(util::fixed(c, 1), util::fixed(all_groups.estimate(), 3),
              util::fixed(raw, 3), util::fixed(ceiled, 3));
  }
  sweep.print(std::cout);
  std::cout
      << "\nexpected: measured rises with c and sits at or above the Eq.1\n"
         "predictions — the equation is a LOWER bound (it charges each\n"
         "group a full fresh-epidemic failure probability, while in the\n"
         "simulation upper groups enjoy multiple intergroup entry points).\n";
  return 0;
}

// Closed-form analysis of Section VI and the Appendix.
//
// Every formula the paper states is implemented here so the benches can
// print analysis-vs-measured side by side and the tests can check the
// algebra (feasibility ranges, bound monotonicity, limiting cases).
//
// Notation follows the paper:
//   S      — group size S_Ti              c    — gossip fanout constant
//   psel   — g/S election probability     pa   — a/z per-entry probability
//   z      — supertopic table size        psucc— channel success probability
//   pi     — fraction of a group infected by the underlying gossip
//   pit    — probability the event propagates one level up   (Sec. VI-D)
//   t      — hierarchy depth              n    — total population
//   N, m   — hierarchical baseline: number of groups / group size
#pragma once

#include <cstddef>
#include <vector>

namespace dam::analysis {

// ---------------------------------------------------------------------------
// Message complexity (Sec. VI-B, Appendix 1)
// ---------------------------------------------------------------------------

/// Events sent within one group: S · (ln(S) + c).
[[nodiscard]] double intra_group_messages(std::size_t S, double c);

/// nbSuperMsg = S · psel · pa · z · psucc — average events that cross one
/// group boundary upward (Sec. VI-B).
[[nodiscard]] double intergroup_messages(std::size_t S, double psel, double pa,
                                         std::size_t z, double psucc);

/// Total events for a publication in the bottom group of a chain
/// `sizes[0..t]` (index 0 = root): Σ S_i(ln S_i + c) + Σ_{i>=1} nbSuperMsg_i.
[[nodiscard]] double dam_total_messages(const std::vector<std::size_t>& sizes,
                                        double c, double g, double a,
                                        std::size_t z, double psucc);

/// Baseline (a): n · (ln(n) + c).
[[nodiscard]] double broadcast_total_messages(std::size_t n, double c);

/// Baseline (b): S'_t · (ln(S'_t) + c) where S'_t is the size of the
/// bottom-most group including supertopic subscribers.
[[nodiscard]] double multicast_total_messages(
    const std::vector<std::size_t>& sizes, double c);

/// Baseline (c): N·m·(ln N + ln m + c1 + c2) (Appendix Eq. 10).
[[nodiscard]] double hierarchical_total_messages(std::size_t N, std::size_t m,
                                                 double c1, double c2);

// ---------------------------------------------------------------------------
// Memory complexity (Sec. VI-C, VI-E.2)
// ---------------------------------------------------------------------------

/// daMulticast: ln(S) + c + z (z = 0 for root processes).
[[nodiscard]] double dam_memory(std::size_t S, double c, std::size_t z);

/// Baseline (a): ln(n) + c — one table over the whole population.
[[nodiscard]] double broadcast_memory_per_process(std::size_t n, double c);

/// Baseline (b): for a process subscribed at `subscribe_level` of a chain
/// `sizes` (index 0 = root), one table of ln(S'_i) + c per level i from its
/// own down to the bottom, where S'_i = sizes[0] + ... + sizes[i] is the
/// size of group T_i (every process subscribed at level <= i).
[[nodiscard]] double multicast_memory_per_process(
    const std::vector<std::size_t>& sizes, std::size_t subscribe_level,
    double c);

/// Baseline (c): ln(m) + c1 + ln(N) + c2.
[[nodiscard]] double hierarchical_memory_per_process(std::size_t N,
                                                     std::size_t m, double c1,
                                                     double c2);

// ---------------------------------------------------------------------------
// Reliability (Sec. VI-D, Appendix 2)
// ---------------------------------------------------------------------------

/// e^{-e^{-c}} — probability that a gossip with fanout ln(S)+c reaches the
/// whole group (Erdős–Rényi threshold argument, [3]).
[[nodiscard]] double gossip_reliability(double c);

/// nbSuscProc = S · psel · pi — processes able to relay one level up.
[[nodiscard]] double susceptible_processes(std::size_t S, double psel,
                                           double pi);

/// pit = 1 - (1 - psucc)^{nbSuscProc · pa · z} — probability at least one
/// intergroup message reaches the supergroup (the paper's formula, which
/// plugs EXPECTED message counts into the exponent).
[[nodiscard]] double pit(std::size_t S, double psel, double pi, double pa,
                         std::size_t z, double psucc);

/// Exact per-process variant of pit (our refinement; see EXPERIMENTS.md):
/// each of the S·pi infected processes independently elects itself with
/// psel and then lands >= 1 message with probability 1-(1-pa·psucc)^z, so
///   pit_binomial = 1 - (1 - psel·(1-(1-pa·psucc)^z))^{S·pi}.
/// Agrees with `pit` when the expected count is large; noticeably sharper
/// when elections are rare (small g) or channels are very lossy.
[[nodiscard]] double pit_binomial(std::size_t S, double psel, double pi,
                                  double pa, std::size_t z, double psucc);

/// Eq. (1): Π_{levels} (e^{-e^{-c_i}} · pit_i). `pit_per_level[i]` is the
/// hop-up probability OUT of level i; the top level contributes no hop.
/// Levels are ordered bottom-most first (the event's own group first).
struct LevelSpec {
  double c = 5.0;
  double pit = 1.0;  ///< ignored for the last (top) level
};
[[nodiscard]] double dam_reliability(const std::vector<LevelSpec>& levels);

/// Baseline (c): e^{-N e^{-c1} - e^{-c2}}.
[[nodiscard]] double hierarchical_reliability(std::size_t N, double c1,
                                              double c2);

// ---------------------------------------------------------------------------
// Trading membership for reliability (Sec. VI-E.3, Appendix 2)
// All formulas take the simplified average case (all levels share c, z,
// S_T, pit), exactly as the paper's appendix does.
// ---------------------------------------------------------------------------

/// vs (b): parity is achievable iff 0 <= c <= -ln(-ln(pit)) (Appendix ①).
[[nodiscard]] double c_upper_vs_multicast(double pit_value);

/// vs (b): the c1 daMulticast must use: c1 = c - ln(1 + e^c ln(pit))
/// (Eq. 16). Requires c in the feasible range.
[[nodiscard]] double c1_for_multicast_parity(double c, double pit_value);

/// vs (b): memory advantage iff z <= (t-1)(ln S_T + c) + ln(1 + e^c ln pit)
/// (Eq. 19).
[[nodiscard]] double z_bound_vs_multicast(std::size_t t, std::size_t S_T,
                                          double c, double pit_value);

/// vs (a): parity iff 0 <= c <= -ln(-t·ln(pit)).
[[nodiscard]] double c_upper_vs_broadcast(std::size_t t, double pit_value);

/// vs (a): c1 = c - ln(1 + t e^c ln(pit)) + ln(t) (Eq. 23).
[[nodiscard]] double c1_for_broadcast_parity(double c, std::size_t t,
                                             double pit_value);

/// vs (a): z <= ln(n) + ln(1 + t e^c ln pit) - ln(S_T) - ln(t) (Eq. 25).
[[nodiscard]] double z_bound_vs_broadcast(std::size_t n, std::size_t S_T,
                                          std::size_t t, double c,
                                          double pit_value);

/// vs (c): feasible band -ln(t(1-ln pit)/(N+1)) <= c <= -ln(-t ln pit/(N+1)).
[[nodiscard]] double c_lower_vs_hierarchical(std::size_t t, std::size_t N,
                                             double pit_value);
[[nodiscard]] double c_upper_vs_hierarchical(std::size_t t, std::size_t N,
                                             double pit_value);

/// vs (c): cT = ln(t) + c - ln(t e^c ln(pit) + N + 1) (Eq. 28).
[[nodiscard]] double cT_for_hierarchical_parity(double c, std::size_t t,
                                                std::size_t N,
                                                double pit_value);

/// vs (c): z <= c + ln(N) + ln(N + 1 + t e^c ln pit) - ln(t) (Eq. 30).
[[nodiscard]] double z_bound_vs_hierarchical(std::size_t N, std::size_t t,
                                             double c, double pit_value);

}  // namespace dam::analysis

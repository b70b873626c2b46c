#include "analysis/formulas.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dam::analysis {

namespace {
double ln_size(std::size_t S) {
  return S >= 2 ? std::log(static_cast<double>(S)) : 0.0;
}

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}
}  // namespace

// --- Message complexity ------------------------------------------------------

double intra_group_messages(std::size_t S, double c) {
  return static_cast<double>(S) * (ln_size(S) + c);
}

double intergroup_messages(std::size_t S, double psel, double pa,
                           std::size_t z, double psucc) {
  return static_cast<double>(S) * psel * pa * static_cast<double>(z) * psucc;
}

double dam_total_messages(const std::vector<std::size_t>& sizes, double c,
                          double g, double a, std::size_t z, double psucc) {
  require(!sizes.empty(), "dam_total_messages: empty chain");
  double total = 0.0;
  for (std::size_t level = 0; level < sizes.size(); ++level) {
    const std::size_t S = sizes[level];
    total += intra_group_messages(S, c);
    if (level >= 1) {  // every non-root level forwards upward
      const double psel = std::clamp(g / static_cast<double>(S), 0.0, 1.0);
      const double pa = std::clamp(a / static_cast<double>(z), 0.0, 1.0);
      total += intergroup_messages(S, psel, pa, z, psucc);
    }
  }
  return total;
}

double broadcast_total_messages(std::size_t n, double c) {
  return intra_group_messages(n, c);
}

double multicast_total_messages(const std::vector<std::size_t>& sizes,
                                double c) {
  require(!sizes.empty(), "multicast_total_messages: empty chain");
  std::size_t cumulative = 0;
  for (std::size_t S : sizes) cumulative += S;
  return intra_group_messages(cumulative, c);
}

double hierarchical_total_messages(std::size_t N, std::size_t m, double c1,
                                   double c2) {
  return static_cast<double>(N) * static_cast<double>(m) *
         (ln_size(N) + ln_size(m) + c1 + c2);
}

// --- Memory ------------------------------------------------------------------

double dam_memory(std::size_t S, double c, std::size_t z) {
  return ln_size(S) + c + static_cast<double>(z);
}

double broadcast_memory_per_process(std::size_t n, double c) {
  return ln_size(n) + c;
}

double multicast_memory_per_process(const std::vector<std::size_t>& sizes,
                                    std::size_t subscribe_level, double c) {
  require(subscribe_level < sizes.size(),
          "multicast_memory_per_process: bad level");
  double total = 0.0;
  std::size_t cumulative = 0;
  for (std::size_t level = 0; level < sizes.size(); ++level) {
    cumulative += sizes[level];
    if (level >= subscribe_level) total += ln_size(cumulative) + c;
  }
  return total;
}

double hierarchical_memory_per_process(std::size_t N, std::size_t m,
                                       double c1, double c2) {
  return ln_size(m) + c1 + ln_size(N) + c2;
}

// --- Reliability -------------------------------------------------------------

double gossip_reliability(double c) { return std::exp(-std::exp(-c)); }

double susceptible_processes(std::size_t S, double psel, double pi) {
  return static_cast<double>(S) * psel * pi;
}

double pit(std::size_t S, double psel, double pi, double pa, std::size_t z,
           double psucc) {
  require(psucc >= 0.0 && psucc <= 1.0, "pit: psucc out of range");
  if (psucc >= 1.0) return 1.0;
  const double exponent =
      susceptible_processes(S, psel, pi) * pa * static_cast<double>(z);
  const double pb_no_msg = std::pow(1.0 - psucc, exponent);
  return 1.0 - pb_no_msg;
}

double pit_binomial(std::size_t S, double psel, double pi, double pa,
                    std::size_t z, double psucc) {
  require(psucc >= 0.0 && psucc <= 1.0, "pit_binomial: psucc out of range");
  const double per_entry = std::clamp(pa * psucc, 0.0, 1.0);
  const double per_process =
      std::clamp(psel, 0.0, 1.0) *
      (1.0 - std::pow(1.0 - per_entry, static_cast<double>(z)));
  const double infected = static_cast<double>(S) * std::clamp(pi, 0.0, 1.0);
  return 1.0 - std::pow(1.0 - per_process, infected);
}

double dam_reliability(const std::vector<LevelSpec>& levels) {
  require(!levels.empty(), "dam_reliability: no levels");
  double reliability = 1.0;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    reliability *= gossip_reliability(levels[i].c);
    if (i + 1 < levels.size()) reliability *= levels[i].pit;  // hop upward
  }
  return reliability;
}

double hierarchical_reliability(std::size_t N, double c1, double c2) {
  return std::exp(-static_cast<double>(N) * std::exp(-c1) - std::exp(-c2));
}

// --- Parity ranges and z bounds (Appendix 2) ----------------------------------

namespace {
void require_pit(double pit_value) {
  require(pit_value > 0.0 && pit_value <= 1.0, "pit must be in (0, 1]");
}
}  // namespace

double c_upper_vs_multicast(double pit_value) {
  require_pit(pit_value);
  if (pit_value >= 1.0) return std::numeric_limits<double>::infinity();
  return -std::log(-std::log(pit_value));
}

double c1_for_multicast_parity(double c, double pit_value) {
  require_pit(pit_value);
  const double inner = 1.0 + std::exp(c) * std::log(pit_value);
  require(inner > 0.0, "c out of the feasible range (Appendix ①)");
  return c - std::log(inner);
}

double z_bound_vs_multicast(std::size_t t, std::size_t S_T, double c,
                            double pit_value) {
  require_pit(pit_value);
  require(t >= 1, "t must be >= 1");
  const double inner = 1.0 + std::exp(c) * std::log(pit_value);
  require(inner > 0.0, "c out of the feasible range (Appendix ①)");
  return (static_cast<double>(t) - 1.0) * (ln_size(S_T) + c) + std::log(inner);
}

double c_upper_vs_broadcast(std::size_t t, double pit_value) {
  require_pit(pit_value);
  require(t >= 1, "t must be >= 1");
  if (pit_value >= 1.0) return std::numeric_limits<double>::infinity();
  return -std::log(-static_cast<double>(t) * std::log(pit_value));
}

double c1_for_broadcast_parity(double c, std::size_t t, double pit_value) {
  require_pit(pit_value);
  require(t >= 1, "t must be >= 1");
  const double inner =
      1.0 + static_cast<double>(t) * std::exp(c) * std::log(pit_value);
  require(inner > 0.0, "c out of the feasible range (Appendix ①)");
  return c - std::log(inner) + std::log(static_cast<double>(t));
}

double z_bound_vs_broadcast(std::size_t n, std::size_t S_T, std::size_t t,
                            double c, double pit_value) {
  require_pit(pit_value);
  require(t >= 1, "t must be >= 1");
  const double inner =
      1.0 + static_cast<double>(t) * std::exp(c) * std::log(pit_value);
  require(inner > 0.0, "c out of the feasible range (Appendix ①)");
  return ln_size(n) + std::log(inner) - ln_size(S_T) -
         std::log(static_cast<double>(t));
}

double c_lower_vs_hierarchical(std::size_t t, std::size_t N,
                               double pit_value) {
  require_pit(pit_value);
  require(t >= 1 && N >= 1, "t, N must be >= 1");
  return -std::log(static_cast<double>(t) * (1.0 - std::log(pit_value)) /
                   (static_cast<double>(N) + 1.0));
}

double c_upper_vs_hierarchical(std::size_t t, std::size_t N,
                               double pit_value) {
  require_pit(pit_value);
  require(t >= 1 && N >= 1, "t, N must be >= 1");
  if (pit_value >= 1.0) return std::numeric_limits<double>::infinity();
  return -std::log(-static_cast<double>(t) * std::log(pit_value) /
                   (static_cast<double>(N) + 1.0));
}

double cT_for_hierarchical_parity(double c, std::size_t t, std::size_t N,
                                  double pit_value) {
  require_pit(pit_value);
  require(t >= 1 && N >= 1, "t, N must be >= 1");
  const double inner = static_cast<double>(t) * std::exp(c) *
                           std::log(pit_value) +
                       static_cast<double>(N) + 1.0;
  require(inner > 0.0, "c out of the feasible range (Appendix ①)");
  return std::log(static_cast<double>(t)) + c - std::log(inner);
}

double z_bound_vs_hierarchical(std::size_t N, std::size_t t, double c,
                               double pit_value) {
  require_pit(pit_value);
  require(t >= 1 && N >= 1, "t, N must be >= 1");
  const double inner = static_cast<double>(N) + 1.0 +
                       static_cast<double>(t) * std::exp(c) *
                           std::log(pit_value);
  require(inner > 0.0, "c out of the feasible range (Appendix ①)");
  return c + ln_size(N) + std::log(inner) - std::log(static_cast<double>(t));
}

}  // namespace dam::analysis

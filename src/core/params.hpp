// Per-topic protocol parameters (Sections V and VII-A).
//
//   b      — topic-table capacity factor: view size (b+1)·ln(S)      [3]
//   c      — gossip fanout constant: fanout ln(S)+c                  [5]
//   g      — expected # of self-elected intergroup links: psel = g/S [5]
//   a      — expected # of supertopic-table targets hit: pa = a/z    [1]
//   z      — supertopic-table size                                   [3]
//   tau    — maintenance threshold: refresh when alive entries <= τ  [1]
//   psucc  — per-message channel delivery probability                [0.85]
//
// Defaults are the paper's simulation setting. The three knobs (g, a, z)
// plus c are exactly what the paper exposes to trade message complexity
// against reliability (Sec. VI-D).
#pragma once

#include <cstddef>

namespace dam::core {

struct TopicParams {
  double b = 3.0;
  double c = 5.0;
  double g = 5.0;
  double a = 1.0;
  std::size_t z = 3;
  std::size_t tau = 1;
  double psucc = 0.85;

  /// Gossip fanout within the group: ceil(ln(S) + c), at least 1.
  [[nodiscard]] std::size_t fanout(std::size_t group_size) const;

  /// Topic-table capacity: ceil((b+1)·ln(S)), at least 1.
  [[nodiscard]] std::size_t view_capacity(std::size_t group_size) const;

  /// psel = g/S clamped to [0,1] — probability that a process elects
  /// itself to forward to the supergroup (Sec. V-B).
  [[nodiscard]] double psel(std::size_t group_size) const;

  /// pa = a/z clamped to [0,1] — probability of sending to each
  /// supertopic-table entry once elected.
  [[nodiscard]] double pa() const;

  /// Throws std::invalid_argument if any value is out of its documented
  /// domain (paper requires 1 <= g <= S and 1 <= a <= z; we validate the
  /// group-size-independent part).
  void validate() const;
};

}  // namespace dam::core

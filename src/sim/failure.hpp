// Failure models for the simulation (Sec. VII of the paper).
//
// Three regimes appear in the evaluation:
//  * Stillborn (Figures 8–10): a fixed fraction of processes is failed from
//    the very beginning and never recovers; membership tables are NOT
//    cleaned ("pessimistically, we assume that the membership algorithm
//    does not replace a failed process").
//  * Dynamic perception (Figure 11): every process is actually alive, but
//    each transmission independently perceives the target as failed with
//    the sweep probability — modelling a weakly-consistent membership view.
//  * Churn (our extension, used in tests/examples): processes crash and
//    recover over time on a precomputed schedule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/clock.hpp"
#include "topics/subscriptions.hpp"
#include "util/rng.hpp"

namespace dam::sim {

using topics::ProcessId;

/// Interface consulted by the transport and the round engines.
class FailureModel {
 public:
  virtual ~FailureModel() = default;

  /// Can `process` execute (receive, deliver, forward) during `round`?
  [[nodiscard]] virtual bool alive(ProcessId process, Round round) const = 0;

  /// Does a message from `from` to `to` at `round` get past failure
  /// (in)visibility? The transport multiplies this with link loss (psucc).
  /// Default: deliverable iff the target is alive.
  /// Contract: deliverable implies alive(to, round). Hosts rely on it to
  /// hand a delivered message to its target without probing it again.
  [[nodiscard]] virtual bool deliverable(ProcessId from, ProcessId to,
                                         Round round, util::Rng& rng) const {
    (void)from;
    (void)rng;
    return alive(to, round);
  }
};

/// Everybody alive, always.
class NoFailures final : public FailureModel {
 public:
  [[nodiscard]] bool alive(ProcessId, Round) const override { return true; }
};

/// A fixed set of processes failed from round 0 (Figures 8–10), one bit
/// per process.
class StillbornFailures final : public FailureModel {
 public:
  StillbornFailures() = default;
  explicit StillbornFailures(const std::vector<ProcessId>& failed) {
    for (ProcessId process : failed) fail(process);
  }

  /// Fails each of `processes` independently with probability
  /// (1 - alive_fraction).
  static StillbornFailures sample(const std::vector<ProcessId>& processes,
                                  double alive_fraction, util::Rng& rng);

  void fail(ProcessId process);

  [[nodiscard]] bool alive(ProcessId process, Round) const override {
    const std::size_t word = process.value / 64;
    return word >= failed_.size() ||
           ((failed_[word] >> (process.value % 64)) & 1) == 0;
  }

  [[nodiscard]] std::size_t failed_count() const noexcept {
    return failed_count_;
  }

 private:
  std::vector<std::uint64_t> failed_;  ///< bit p: process p failed
  std::size_t failed_count_ = 0;
};

/// Figure 11: every process is alive, but each transmission independently
/// sees the target as failed with probability `perceived_failure`.
class DynamicPerceptionFailures final : public FailureModel {
 public:
  explicit DynamicPerceptionFailures(double perceived_failure)
      : perceived_failure_(perceived_failure) {}

  [[nodiscard]] bool alive(ProcessId, Round) const override { return true; }

  [[nodiscard]] bool deliverable(ProcessId, ProcessId, Round,
                                 util::Rng& rng) const override {
    return !rng.bernoulli(perceived_failure_);
  }

  [[nodiscard]] double perceived_failure() const noexcept {
    return perceived_failure_;
  }

 private:
  double perceived_failure_;
};

/// Crash/recovery schedule: per process, a sorted list of [down, up)
/// intervals. Used by the stream replay, the frozen engine's churn regime,
/// the churn tests and the newsroom example.
///
/// Liveness cursor: besides the intervals, the model keeps one dead bit
/// per process for a single cursor round, and every interval endpoint in
/// a list sorted by round. A query for the cursor round is a bit test; a
/// query for a later round first advances the cursor, re-deciding only the
/// processes with an endpoint in between (O(transitions)); a query for an
/// earlier round falls back to the interval scan. Every answer equals the
/// scan's. alive() advances the cursor itself, so a host that only ever
/// calls alive() pays nothing extra for rounds it never asks about.
///
/// Threading: alive() is const but may advance the cursor, so concurrent
/// callers must all ask for the cursor round. A host that probes from
/// several threads calls advance_to(round) first; from then on, queries
/// for `round` (or earlier) only read.
class ChurnFailures final : public FailureModel {
 public:
  struct Interval {
    Round down;
    Round up;  // exclusive; process is failed for rounds in [down, up)
  };

  explicit ChurnFailures(std::size_t process_count)
      : downtime_(process_count), dead_((process_count + 63) / 64, 0) {}

  /// Adds a downtime interval and resets the cursor. Precondition:
  /// down < up.
  void add_downtime(ProcessId process, Interval interval);

  /// Randomly generated churn: each process independently suffers
  /// `outages` outages of length `outage_length`, uniformly placed in
  /// [0, horizon).
  static ChurnFailures sample(std::size_t process_count, Round horizon,
                              std::size_t outages, Round outage_length,
                              util::Rng& rng);

  /// Throws std::out_of_range for a process outside the schedule.
  [[nodiscard]] bool alive(ProcessId process, Round round) const override {
    if (process.value >= downtime_.size()) throw_out_of_range();
    if (!synced_ || round != cursor_) {
      if (synced_ && round < cursor_) return !down_at(process, round);
      advance(round);
    }
    return ((dead_[process.value / 64] >> (process.value % 64)) & 1) == 0;
  }

  /// Moves the cursor to `round` unless it is there or beyond already, so
  /// that concurrent alive() calls for `round` only read.
  void advance_to(Round round) {
    if (!synced_ || round > cursor_) advance(round);
  }

 private:
  /// One interval endpoint: `process` may change state at `round`.
  struct Transition {
    Round round;
    std::uint32_t process;
  };

  /// The reference interval scan: does one of `process`'s intervals hold
  /// `round`?
  [[nodiscard]] bool down_at(ProcessId process, Round round) const;

  /// Brings the dead bits to `round`. Precondition: !synced_ or
  /// round > cursor_.
  void advance(Round round) const;

  [[noreturn]] static void throw_out_of_range();

  std::vector<std::vector<Interval>> downtime_;
  // The cursor (see the class comment).
  mutable std::vector<Transition> transitions_;  ///< by round once synced_
  mutable std::vector<std::uint64_t> dead_;  ///< bit p: p down at cursor_
  mutable std::size_t applied_ = 0;  ///< transitions_ with round <= cursor_
  mutable Round cursor_ = 0;
  mutable bool synced_ = false;  ///< false: rebuild from the first transition
};

}  // namespace dam::sim

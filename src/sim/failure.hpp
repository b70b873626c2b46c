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

#include <memory>
#include <unordered_set>
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

/// A fixed set of processes failed from round 0 (Figures 8–10).
class StillbornFailures final : public FailureModel {
 public:
  StillbornFailures() = default;
  explicit StillbornFailures(std::unordered_set<ProcessId> failed)
      : failed_(std::move(failed)) {}

  /// Fails each of `processes` independently with probability
  /// (1 - alive_fraction).
  static StillbornFailures sample(const std::vector<ProcessId>& processes,
                                  double alive_fraction, util::Rng& rng);

  void fail(ProcessId process) { failed_.insert(process); }

  [[nodiscard]] bool alive(ProcessId process, Round) const override {
    return !failed_.contains(process);
  }

  [[nodiscard]] std::size_t failed_count() const noexcept {
    return failed_.size();
  }

 private:
  std::unordered_set<ProcessId> failed_;
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
/// intervals. Used by churn tests and the newsroom example.
class ChurnFailures final : public FailureModel {
 public:
  struct Interval {
    Round down;
    Round up;  // exclusive; process is failed for rounds in [down, up)
  };

  explicit ChurnFailures(std::size_t process_count)
      : downtime_(process_count) {}

  /// Adds a downtime interval. Precondition: down < up.
  void add_downtime(ProcessId process, Interval interval);

  /// Randomly generated churn: each process independently suffers
  /// `outages` outages of length `outage_length`, uniformly placed in
  /// [0, horizon).
  static ChurnFailures sample(std::size_t process_count, Round horizon,
                              std::size_t outages, Round outage_length,
                              util::Rng& rng);

  [[nodiscard]] bool alive(ProcessId process, Round round) const override;

 private:
  std::vector<std::vector<Interval>> downtime_;
};

}  // namespace dam::sim

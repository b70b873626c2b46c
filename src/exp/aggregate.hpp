// Streaming aggregation for experiment sweeps.
//
// One engine run produces a core::FrozenRunResult; a sweep point aggregates
// thousands (or millions) of them. This module owns the aggregate types and
// the two operations the lab needs:
//   * accumulate_run — fold one run into a point (Welford, O(groups) state,
//     no run buffering: memory is constant in the number of runs);
//   * merge_point    — combine two partial points (Chan et al. merge), so
//     shards aggregated on different threads can be reduced afterwards.
//
// Determinism note: floating-point merge is NOT associative, so the runner
// shards the run range identically for every --jobs value and merges the
// shard partials in shard order. Aggregates are therefore bit-identical
// regardless of thread count.
//
// Layering: core/frozen_sim → sim/scenario (workload description) → this
// module (aggregate data model) → exp/runner (execution) → exp/report.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/frozen_sim.hpp"
#include "sim/scenario.hpp"
#include "util/quantiles.hpp"
#include "util/stats.hpp"
#include "workload/driver.hpp"

namespace dam::exp {

/// Deadlines (in rounds) of the reliability-vs-deadline curve: fraction of
/// expected deliveries that landed within d rounds of publication, for
/// each d here. Fixed so every report/baseline/bench_diff document lines
/// up column for column.
inline constexpr std::array<std::size_t, 7> kDeadlineGrid{1, 2, 4, 8,
                                                         16, 32, 64};

/// Aggregates over the runs of one sweep point, per group.
struct ScenarioGroupStats {
  std::string topic;
  std::size_t size = 0;
  util::Accumulator intra_sent;
  util::Accumulator inter_sent;
  util::Accumulator inter_received;
  util::Accumulator delivery_ratio;      ///< over runs with alive members
  util::Proportion all_alive_delivered;  ///< over runs with alive members
  util::Proportion any_inter_received;   ///< P(>= 1 intergroup arrival)
  util::Accumulator duplicate_deliveries;

  /// Propagation latency in rounds, conditioned on the group receiving
  /// anything at all (frozen lane: per-run first/last delivery round).
  util::Accumulator first_delivery_round;
  util::Accumulator last_delivery_round;

  /// Control traffic charged to this group (dynamic lane; zero samples for
  /// frozen sweeps, which exchange no control messages).
  util::Accumulator control_sent;
};

/// One aggregated sweep point (a single alive fraction of a scenario).
struct ScenarioPoint {
  double alive_fraction = 1.0;
  std::vector<ScenarioGroupStats> groups;  ///< indexed by topic
  util::Accumulator total_messages;
  util::Accumulator rounds;

  // --- Dynamic-lane aggregates (zero samples for frozen sweeps). ----------
  util::Accumulator publications;       ///< publications injected per run
  util::Accumulator event_reliability;  ///< per-run mean fraction of alive
                                        ///< interested processes reached
  util::Accumulator delivery_latency;   ///< per-run mean delivery latency
  util::Accumulator max_latency;        ///< per-run slowest first delivery

  // --- Bootstrap lane (cold-start runs; see workload::DynamicRunResult). --
  util::Accumulator rounds_to_link;
  util::Accumulator linked_fraction;
  util::Accumulator control_at_link;

  // --- Latency-SLO aggregates (both lanes). -------------------------------
  /// Per-delivery latency distribution pooled over every run of the point.
  /// accumulate_run merges run sketches in run order and merge_point in
  /// shard order, so the sketch inherits the bit-identical-for-any-jobs
  /// contract the Welford accumulators already have.
  util::QuantileSketch latency_sketch;

  /// Pooled denominator of the reliability-vs-deadline curve: expected
  /// deliveries summed over runs.
  std::uint64_t expected_deliveries = 0;

  /// curve(d) = fraction of expected deliveries landing within d rounds,
  /// clamped to 1 (the sketch may count deliveries to processes that later
  /// died and left the denominator). 0.0 when nothing was expected.
  [[nodiscard]] double deadline_fraction(std::size_t deadline) const {
    if (expected_deliveries == 0) return 0.0;
    const double fraction =
        static_cast<double>(
            latency_sketch.weight_le(static_cast<double>(deadline))) /
        static_cast<double>(expected_deliveries);
    return fraction < 1.0 ? fraction : 1.0;
  }

  // --- Message-class totals (stream lanes; zero samples for frozen sweeps).
  /// One sample per run: the sums of the run's timeline rows, with
  /// `delivers` adding the run's parasite deliveries. The publishes row
  /// sums to `publications` and is reported from it; `msg_control_sends`
  /// is also the sweep's control-message count.
  util::Accumulator msg_event_sends;
  util::Accumulator msg_inter_sends;
  util::Accumulator msg_control_sends;
  util::Accumulator msg_delivers;

  // --- Run-timeline flight recorder (both lanes). -------------------------
  /// Time series pooled over every run of the point: per-round counters
  /// sum (integer sums, so order-independent), byte peaks/gauges take the
  /// worst window of any run, per-window latency sketches merge in
  /// run→shard order (bit-identical for any --jobs, exactly like
  /// latency_sketch above).
  util::Timeline timeline;
};

/// Empty aggregate for one sweep point: group labels/sizes from the
/// scenario, every statistic at zero samples.
[[nodiscard]] ScenarioPoint make_point(const sim::Scenario& scenario,
                                       double alive_fraction);

/// Folds one engine run into the point. Runs where a group has no alive
/// member contribute no delivery-ratio/reliability sample for that group
/// (a vacuous 1.0 would inflate reliability curves at low alive fractions).
void accumulate_run(ScenarioPoint& point, const core::FrozenRunResult& run);

/// Dynamic-lane overload: same per-group counters, plus the traffic-stream
/// aggregates (publications, reliability, latency, message classes) and — for
/// cold-start runs — the bootstrap-link trio.
void accumulate_run(ScenarioPoint& point,
                    const workload::DynamicRunResult& run);

/// Merges a shard partial into `into` (same scenario, same sweep point).
/// Exact for counters/proportions; Welford-merge for the accumulators.
void merge_point(ScenarioPoint& into, const ScenarioPoint& shard);

}  // namespace dam::exp

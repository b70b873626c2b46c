// Run-timeline flight recorder: fixed-window time series over rounds.
//
// PR 7's observability layer reports END-of-run aggregates; this layer
// records how a run EVOLVES — the paper's whole point is that epidemic
// dissemination has reliability modes over time. Simulated rounds are
// bucketed into fixed-width windows; each window accumulates delivery /
// send / churn counters, a small per-window latency sketch (rolling
// p50/p99), the transport queue's high-water bytes, and resource GAUGES
// (seen-column / delivered-set / request-set logical bytes) sampled at window
// boundaries — the per-process bookkeeping that is the S=10⁷ memory
// question.
//
// Determinism contract (the same one util::QuantileSketch documents):
// given the same note/merge sequence a Timeline is bit-identical. Both
// engines feed it from already-deterministic paths (the dynamic replay
// loop is serial; the frozen lane builds it post-hoc from the chunk-order
// merged deliveries_per_round), and exp/aggregate merges run→shard→chunk
// in fixed order, so timelines inherit the bit-identical-for-every-
// --jobs/--threads contract. All byte values are LOGICAL (element counts ×
// element sizes), never allocator-dependent.
//
// Merge semantics per window: counters SUM (they are per-run totals),
// byte peaks and gauges take the MAX (the sweep-level measurand is "the
// worst window of any run"), latency sketches merge in window order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/quantiles.hpp"

namespace dam::util {

class Timeline {
 public:
  /// Rounds per window. 8 keeps giant dynamic runs (a few hundred rounds)
  /// at a few dozen windows while still resolving the frozen engine's
  /// short dissemination waves.
  static constexpr std::size_t kDefaultWindowRounds = 8;

  /// Centroid budget of the per-window latency sketch. Latencies are
  /// integer rounds, so 64 distinct values per window is far beyond what
  /// a window ever sees — the windowed percentiles stay exact.
  static constexpr std::size_t kWindowSketchCapacity = 64;

  struct Window {
    // --- Per-window counters (merge: sum). --------------------------------
    std::uint64_t deliveries = 0;     ///< first-time event deliveries
    std::uint64_t publishes = 0;      ///< events injected
    std::uint64_t event_sends = 0;    ///< intra-group event messages
    std::uint64_t inter_sends = 0;    ///< intergroup event messages
    std::uint64_t control_sends = 0;  ///< membership/bootstrap/recovery
    std::uint64_t joins = 0;          ///< processes subscribing mid-run
    std::uint64_t leaves = 0;         ///< permanent departures
    std::uint64_t crashes = 0;        ///< outage starts
    std::uint64_t recovers = 0;       ///< outage ends

    // --- High-water marks and boundary gauges (merge: max). ---------------
    std::uint64_t queue_peak_bytes = 0;  ///< transport in-flight high-water
    std::uint64_t seen_bytes = 0;        ///< open seen-column bytes
    std::uint64_t delivered_bytes = 0;   ///< Σ delivered-set bytes
    std::uint64_t request_bytes = 0;     ///< Σ recovery request-set bytes

    /// Latencies of the deliveries landing in this window (rounds from
    /// publish to first delivery) — the rolling p50/p99 source.
    QuantileSketch latency{kWindowSketchCapacity};

    /// seen + delivered + request — the bookkeeping footprint this window.
    [[nodiscard]] std::uint64_t bookkeeping_bytes() const noexcept {
      return seen_bytes + delivered_bytes + request_bytes;
    }
  };

  explicit Timeline(std::size_t window_rounds = kDefaultWindowRounds);

  [[nodiscard]] std::size_t window_rounds() const noexcept {
    return window_rounds_;
  }
  [[nodiscard]] const std::vector<Window>& windows() const noexcept {
    return windows_;
  }
  [[nodiscard]] bool empty() const noexcept { return windows_.empty(); }

  /// Window index covering `round`.
  [[nodiscard]] std::size_t window_index(std::uint64_t round) const noexcept {
    return static_cast<std::size_t>(round / window_rounds_);
  }

  // --- Recording (all O(1) amortized; never draws randomness). ------------
  void note_delivery(std::uint64_t round, double latency,
                     std::uint64_t weight = 1);
  void note_publish(std::uint64_t round);
  void note_event_send(std::uint64_t round);
  void note_inter_send(std::uint64_t round);
  void note_control_send(std::uint64_t round);
  void note_join(std::uint64_t round);
  void note_leave(std::uint64_t round);
  void note_crash(std::uint64_t round);
  void note_recover(std::uint64_t round);

  /// Folds a queue high-water reading into `round`'s window (max).
  void note_queue_peak(std::uint64_t round, std::uint64_t bytes);

  /// Records the bookkeeping gauges read at a boundary of `round`'s window
  /// (max — a window sampled twice keeps its larger reading).
  void sample_gauges(std::uint64_t round, std::uint64_t seen_bytes,
                     std::uint64_t delivered_bytes,
                     std::uint64_t request_bytes);

  /// Merges another timeline in (same window width, or throws
  /// std::invalid_argument). Deterministic: callers must merge in a fixed
  /// order (the sweep runner's run→shard order), exactly as for
  /// QuantileSketch.
  void merge(const Timeline& other);

  /// Max over windows of seen+delivered+request bytes — the
  /// `peak_bookkeeping_bytes` measurand bench_diff gates.
  [[nodiscard]] std::uint64_t peak_bookkeeping_bytes() const noexcept;

 private:
  [[nodiscard]] Window& window_for(std::uint64_t round);

  std::size_t window_rounds_;
  std::vector<Window> windows_;
};

}  // namespace dam::util

// Run-timeline flight recorder: per-round counters plus fixed-window
// latency sketches and gauges.
//
// PR 7's observability layer reports END-of-run aggregates; this layer
// records how a run EVOLVES — the paper's whole point is that epidemic
// dissemination has reliability modes over time. It is also the one store
// of a run's counters: every delivery, publish, send and churn happening
// is noted once, into the row of the round it happened in. Window
// counters, the per-round series and the run's message-class totals are
// all sums over those rows. Only what cannot be summed is kept per window:
// a small latency sketch (rolling p50/p99), the transport queue's
// high-water bytes, and resource GAUGES (seen-column / delivered-set /
// request-set logical bytes) sampled at window boundaries — the
// per-process bookkeeping that is the S=10⁷ memory question.
//
// Determinism contract (the same one util::QuantileSketch documents):
// given the same note/merge sequence a Timeline is bit-identical. Both
// engines feed it from already-deterministic paths (the dynamic replay
// loop is serial; the frozen wave loop notes each round's deliveries after
// its chunk-order merge), and exp/aggregate merges run→shard→chunk in
// fixed order, so timelines inherit the bit-identical-for-every-
// --jobs/--threads contract. All byte values are LOGICAL (element counts ×
// element sizes), never allocator-dependent.
//
// Merge semantics: rows SUM (they are per-run totals), byte peaks and
// gauges take the MAX per window (the sweep-level measurand is "the worst
// window of any run"), latency sketches merge in window order.
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
  static constexpr std::size_t kWindowRounds = 8;

  /// Centroid budget of the per-window latency sketch. Latencies are
  /// integer rounds, so 64 distinct values per window is far beyond what
  /// a window ever sees — the windowed percentiles stay exact.
  static constexpr std::size_t kWindowSketchCapacity = 64;

  /// Counters of one round — or, summed, of a window or a whole run.
  struct Counters {
    std::uint64_t deliveries = 0;     ///< interested first-time deliveries
    std::uint64_t publishes = 0;      ///< events injected
    std::uint64_t event_sends = 0;    ///< intra-group event messages
    std::uint64_t inter_sends = 0;    ///< intergroup event messages
    std::uint64_t control_sends = 0;  ///< membership/bootstrap/recovery
    std::uint64_t joins = 0;          ///< processes subscribing mid-run
    std::uint64_t leaves = 0;         ///< permanent departures
    std::uint64_t crashes = 0;        ///< outage starts
    std::uint64_t recovers = 0;       ///< outage ends

    Counters& operator+=(const Counters& other) noexcept;
  };

  /// What a window keeps besides its rows' sums (merge: max / sketch merge).
  struct Window {
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

  [[nodiscard]] static constexpr std::size_t window_rounds() noexcept {
    return kWindowRounds;
  }
  /// One row per round (index = round), up to the last round noted.
  [[nodiscard]] const std::vector<Counters>& rounds() const noexcept {
    return rounds_;
  }
  /// Every window up to the last one any note touched, so the windows
  /// cover every row.
  [[nodiscard]] const std::vector<Window>& windows() const noexcept {
    return windows_;
  }
  [[nodiscard]] bool empty() const noexcept { return windows_.empty(); }

  /// Window index covering `round`.
  [[nodiscard]] std::size_t window_index(std::uint64_t round) const noexcept {
    return static_cast<std::size_t>(round / kWindowRounds);
  }

  /// Sum of the rows of window `window`.
  [[nodiscard]] Counters window_counters(std::size_t window) const noexcept;

  /// Sum of every row — the run's (or sweep point's) totals.
  [[nodiscard]] Counters totals() const noexcept;

  /// One counter as a per-round series, trimmed after its last nonzero
  /// round (so a counter never noted yields an empty series).
  [[nodiscard]] std::vector<std::uint64_t> per_round(
      std::uint64_t Counters::*counter) const;

  // --- Recording (all O(1) amortized; never draws randomness). ------------
  void note_delivery(std::uint64_t round, double latency,
                     std::uint64_t weight = 1);
  void note_publish(std::uint64_t round);
  void note_event_send(std::uint64_t round, std::uint64_t count = 1);
  void note_inter_send(std::uint64_t round, std::uint64_t count = 1);
  void note_control_send(std::uint64_t round, std::uint64_t count = 1);
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

  /// Merges another timeline in. Deterministic: callers must merge in a
  /// fixed order (the sweep runner's run→shard order), exactly as for
  /// QuantileSketch.
  void merge(const Timeline& other);

  /// Max over windows of seen+delivered+request bytes — the
  /// `peak_bookkeeping_bytes` measurand bench_diff gates.
  [[nodiscard]] std::uint64_t peak_bookkeeping_bytes() const noexcept;

 private:
  [[nodiscard]] Counters& row_for(std::uint64_t round);
  [[nodiscard]] Window& window_for(std::uint64_t round);

  std::vector<Counters> rounds_;
  std::vector<Window> windows_;
};

}  // namespace dam::util

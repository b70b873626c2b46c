// Traffic-model subsystem — deterministic workload generation.
//
// The frozen engine answers "what does ONE publication cost"; real systems
// serve *streams*: publications arriving over time, skewed across topics,
// while the subscriber population churns underneath. This module produces
// those streams as plain data — a timestamped, round-sorted EventStream of
// publish / join / crash / leave events — which workload/driver replays
// against the dynamic message-passing engine (core/system).
//
// Determinism is the load-bearing property, in the damlab sharding style:
// every stochastic draw comes from an Rng that is a PURE function of
// (base_seed, stream id, index) — never of generation order, other streams,
// or the thread that runs the replay. Two consequences:
//   * the same (workload, seed) always yields the identical event stream,
//     so exp::run_sweep aggregates stay bit-identical for any --jobs;
//   * streams are independently extensible: adding a draw to one stream
//     (say, churn) never shifts another stream's randomness (say, topic
//     popularity), so workloads stay comparable across code changes.
//
// Three generators compose a WorkloadConfig:
//   * arrivals   — Poisson (rate per round), flashcrowd (bursts over a
//                  background rate), or an evenly-spaced fixed count;
//   * popularity — which topic each publication lands on: the scenario's
//                  publish topic, uniform over all topics, or Zipf-skewed
//                  (rank = topic index, weight (rank+1)^-s);
//   * churn      — subscription dynamics: per-process crash/recover and
//                  permanent leaves, plus a stream of fresh joins.
//
// Layering: util/rng → this module (pure data, no engine dependencies) →
// workload/driver (replays a stream into core/system) → exp/runner.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace dam::workload {

/// Named sub-streams of one workload seed. The numeric values are part of
/// the determinism contract (reordering them reshuffles every workload), so
/// they are fixed explicitly and never renumbered.
enum class StreamId : std::uint64_t {
  kArrival = 1,     ///< per-round arrival counts (index = round)
  kPopularity = 2,  ///< per-publication topic pick (index = publication)
  kPublisher = 3,   ///< per-publication publisher rank (index = publication)
  kChurn = 4,       ///< per-process crash/leave schedule (index = process)
  kJoin = 5,        ///< per-join placement (index = join)
  kStillborn = 6,   ///< per-process initial-failure coin (index = process)
  kSystem = 7,      ///< the DamSystem engine seed (index = 0)
  kSteadyArrival = 8,  ///< steady lane: per-(publisher, round) arrival count
                       ///< (index = publisher << 32 | round)
  kSteadyTopic = 9,    ///< steady lane: per-publisher home topic + member
                       ///< rank (index = publisher)
};

/// Derives the Rng for one (base_seed, stream, index) cell. Pure: no global
/// state, no dependence on call order. This is the only seed-derivation
/// path in the subsystem.
[[nodiscard]] util::Rng stream_rng(std::uint64_t base_seed, StreamId stream,
                                   std::uint64_t index) noexcept;

// --- Workload description ---------------------------------------------------

enum class ArrivalKind {
  kScheduled,   ///< exactly `count` publications, evenly spaced over horizon
  kPoisson,     ///< per-round Poisson(rate) arrivals
  kFlashcrowd,  ///< Poisson background + `bursts` dense bursts
};

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  std::size_t horizon = 32;  ///< rounds of traffic generation
  double rate = 0.25;        ///< expected publications/round (kPoisson and
                             ///< the kFlashcrowd background)
  std::size_t count = 1;     ///< kScheduled: total publications

  // kFlashcrowd: `bursts` bursts, evenly spaced across the horizon, each
  // squeezing `burst_size` publications into `burst_width` rounds.
  std::size_t bursts = 2;
  std::size_t burst_size = 10;
  std::size_t burst_width = 2;
};

enum class PopularityKind {
  kSingle,   ///< every publication on the scenario's publish topic
  kUniform,  ///< uniform over all topics
  kZipf,     ///< Zipf over topic index: weight (index+1)^-s
};

struct PopularityConfig {
  PopularityKind kind = PopularityKind::kSingle;
  double zipf_s = 1.0;  ///< kZipf exponent (s = 0 degenerates to uniform)
};

/// Subscription-churn trace knobs. Crash/recover and leave schedules are
/// drawn per *initial* process; joins arrive as fresh subscribers.
struct ChurnTraceConfig {
  double crash_fraction = 0.0;    ///< P(process suffers one outage)
  std::size_t crash_length = 2;   ///< outage length in rounds
  double leave_fraction = 0.0;    ///< P(process leaves for good)
  std::size_t joins = 0;          ///< fresh subscribers over the horizon
};

/// Knobs of the dynamic engine run itself (not of the event stream).
struct EngineConfig {
  bool auto_wire_super_tables = true;  ///< false: measure cold bootstrap
  std::size_t neighborhood_degree = 4;
  std::size_t warmup_rounds = 3;   ///< rounds before the stream starts
  std::size_t drain_rounds = 25;   ///< rounds after the stream ends
  bool recovery_enabled = false;   ///< lpbcast-style event recovery
  std::size_t recovery_history = 32;
  std::size_t recovery_digest = 8;

  // Sustained-service GC: when > 0, the driver retires each publication's
  // delivered-set / latency bookkeeping once its deadline has been
  // harvested, and its seen column is released `gc_horizon` rounds after
  // its first mark, bounding per-run state over long horizons (the
  // lpbcast bounded-buffer discipline). 0 keeps every column — and the
  // engine streams bit-identical to before.
  std::size_t gc_horizon = 0;
};

/// Sustained-service traffic: P concurrent publishers, each pinned to one
/// home topic (drawn once from the popularity model) and one member rank,
/// emitting per-round Poisson(rate) publications over the arrival horizon —
/// plus optional synchronized flashcrowd bursts where EVERY publisher
/// spikes together. `publishers == 0` disables the lane (the default), in
/// which case the single-stream ArrivalConfig path runs unchanged. With
/// publishers > 0 the steady generator REPLACES the arrival stream; churn
/// and join streams compose on top exactly as before.
///
/// Determinism: publisher p's round-r arrival count is one draw from
/// (seed, kSteadyArrival, p << 32 | r); its home topic and member rank come
/// from (seed, kSteadyTopic, p). Extending the horizon or adding publishers
/// never reshuffles existing cells.
struct SteadyConfig {
  std::size_t publishers = 0;  ///< concurrent publishers (0 = lane off)
  double rate = 0.05;          ///< expected publications/round/publisher

  // Synchronized flashcrowds: every `burst_every` rounds (0 = never), each
  // publisher adds `burst_size` publications spread over `burst_width`
  // rounds starting at the burst round.
  std::size_t burst_every = 0;
  std::size_t burst_size = 4;
  std::size_t burst_width = 2;
};

struct WorkloadConfig {
  ArrivalConfig arrival;
  PopularityConfig popularity;
  ChurnTraceConfig churn;
  EngineConfig engine;
  SteadyConfig steady;
};

// --- The event stream -------------------------------------------------------

struct TrafficEvent {
  enum class Kind : std::uint8_t { kJoin = 0, kPublish = 1, kCrash = 2, kLeave = 3 };

  Kind kind = Kind::kPublish;
  std::size_t round = 0;   ///< rounds after the warmup phase
  std::uint32_t topic = 0; ///< scenario topic index (kPublish / kJoin)
  std::uint64_t actor = 0; ///< kPublish: raw publisher draw (mod group size
                           ///< at replay time); kCrash/kLeave: process index
  std::size_t length = 0;  ///< kCrash: outage length in rounds
};

/// A round-sorted trace. Within a round, joins precede publishes (a joiner
/// can be reached by same-round traffic), and same-kind events keep their
/// generation (index) order.
using EventStream = std::vector<TrafficEvent>;

/// What generate_stream needs to know about the population it targets:
/// topic count, where single-topic publications go, and how many processes
/// exist at stream start (the churn domain).
struct TrafficShape {
  std::size_t topic_count = 1;
  std::uint32_t publish_topic = 0;
  std::size_t initial_processes = 0;
};

/// Number of publish events in `stream`.
[[nodiscard]] std::size_t publication_count(const EventStream& stream) noexcept;

/// Materializes the full trace for one run. Pure in (config, shape, seed);
/// see the file comment for the per-stream (seed, stream, index) contract.
/// Throws std::invalid_argument on out-of-domain knobs (negative rates,
/// zipf_s < 0, zero-topic shapes).
[[nodiscard]] EventStream generate_stream(const WorkloadConfig& config,
                                          const TrafficShape& shape,
                                          std::uint64_t base_seed);

/// Poisson(rate) sample via Knuth inversion from `rng`. Deterministic;
/// `rate` is clamped to [0, 64] (the generator is per-round, so larger
/// rates are a misconfiguration, not a workload).
[[nodiscard]] std::size_t poisson_draw(double rate, util::Rng& rng) noexcept;

/// Zipf CDF over `n` ranks with exponent `s` (weight (rank+1)^-s),
/// normalized to end at 1.0. Exposed for tests and popularity plots.
[[nodiscard]] std::vector<double> zipf_cdf(std::size_t n, double s);

}  // namespace dam::workload

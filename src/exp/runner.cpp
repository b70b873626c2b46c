#include "exp/runner.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "baselines/steady.hpp"
#include "core/frozen_sim.hpp"
#include "util/parallel.hpp"
#include "workload/driver.hpp"

namespace dam::exp {

namespace {
/// Shards per sweep point. Must NOT depend on the worker count (see
/// runner.hpp): it fixes the reduction shape, and with it the last-ulp
/// rounding of every mean. 32 leaves stealable slack for any core count.
constexpr std::size_t kShardsPerPoint = 32;
}  // namespace

SweepResult run_sweep(const sim::Scenario& scenario,
                      const RunnerOptions& options) {
  const topics::TopicDag dag = scenario.build_dag();
  if (scenario.group_sizes.size() != dag.size()) {
    throw std::invalid_argument(
        "run_sweep: group_sizes must cover every topic");
  }
  if (scenario.runs <= 0) {
    throw std::invalid_argument("run_sweep: runs must be positive");
  }
  // Every engine reads the one read-only DAG, shared across workers. The
  // stream engines route along one supertopic per group, so their tree
  // check runs here, once, before any worker starts.
  const bool dynamic = scenario.engine == sim::EngineKind::kDynamic;
  const bool stream = sim::is_stream_engine(scenario.engine);
  if (stream) topics::require_tree(dag, "run_sweep");
  const auto started = std::chrono::steady_clock::now();
  const unsigned jobs = util::resolve_threads(options.jobs);
  const std::size_t runs = static_cast<std::size_t>(scenario.runs);
  const std::size_t shard_count =
      std::min<std::size_t>(kShardsPerPoint, runs);

  struct Shard {
    ScenarioPoint partial;
    std::uint64_t events = 0;
    std::uint64_t runs = 0;
    double table_build_seconds = 0.0;
    double dissemination_seconds = 0.0;
    std::size_t peak_table_bytes = 0;
    std::size_t peak_queue_bytes = 0;
    std::size_t peak_bookkeeping_bytes = 0;
  };
  std::vector<Shard> shards(scenario.alive_sweep.size() * shard_count);

  // One task per (sweep point, shard), point-major: task t is shards[t].
  util::run_parallel(shards.size(), jobs, [&](std::size_t task) {
    const std::size_t pt = task / shard_count;
    const std::size_t s = task % shard_count;
    const double alive = scenario.alive_sweep[pt];
    // Contiguous run range [lo, hi); boundaries depend only on (runs,
    // shard_count), never on the worker count.
    const std::size_t lo = runs * s / shard_count;
    const std::size_t hi = runs * (s + 1) / shard_count;
    Shard& shard = shards[task];
    shard.partial = make_point(scenario, alive);
    for (std::size_t run = lo; run < hi; ++run) {
      if (stream) {
        const workload::DynamicRunResult result =
            dynamic ? workload::run_dynamic_simulation(
                          scenario, dag, alive, static_cast<int>(run))
                    : baselines::run_steady_baseline(
                          scenario, dag, alive, static_cast<int>(run));
        accumulate_run(shard.partial, result);
        // Control messages are real network traffic of the dynamic
        // engine; the events/sec throughput counts them alongside
        // event messages.
        const util::Timeline::Counters totals = result.timeline.totals();
        shard.events +=
            totals.event_sends + totals.inter_sends + totals.control_sends;
        ++shard.runs;
        // Same wall split as the frozen lane: arena/spawn time vs the
        // replay itself, plus the largest view-arena footprint.
        shard.table_build_seconds += result.table_build_seconds;
        shard.dissemination_seconds +=
            result.wall_seconds - result.table_build_seconds;
        shard.peak_table_bytes =
            std::max(shard.peak_table_bytes, result.table_bytes);
        shard.peak_queue_bytes =
            std::max(shard.peak_queue_bytes, result.queue_bytes);
        shard.peak_bookkeeping_bytes =
            std::max<std::size_t>(shard.peak_bookkeeping_bytes,
                                  result.timeline.peak_bookkeeping_bytes());
      } else {
        const core::FrozenRunResult result = core::run_frozen_simulation(
            scenario.config_for(dag, alive, static_cast<int>(run)));
        accumulate_run(shard.partial, result);
        shard.events += result.total_messages;
        ++shard.runs;
        shard.table_build_seconds += result.table_build_seconds;
        shard.dissemination_seconds += result.dissemination_seconds;
        shard.peak_table_bytes =
            std::max(shard.peak_table_bytes, result.table_bytes);
        shard.peak_bookkeeping_bytes =
            std::max<std::size_t>(shard.peak_bookkeeping_bytes,
                                  result.timeline.peak_bookkeeping_bytes());
      }
    }
  });

  SweepResult result;
  // Report the worker count that could actually run, not the request:
  // run_parallel never spawns more workers than there are tasks, and the
  // JSON "jobs" field feeds perf-trajectory comparisons.
  result.jobs = static_cast<unsigned>(
      std::max<std::size_t>(1, std::min<std::size_t>(jobs, shards.size())));
  result.threads = util::resolve_threads(scenario.threads);
  result.points.reserve(scenario.alive_sweep.size());
  for (std::size_t pt = 0; pt < scenario.alive_sweep.size(); ++pt) {
    ScenarioPoint point = make_point(scenario, scenario.alive_sweep[pt]);
    for (std::size_t s = 0; s < shard_count; ++s) {
      const Shard& shard = shards[pt * shard_count + s];
      merge_point(point, shard.partial);
      result.total_events += shard.events;
      result.total_runs += shard.runs;
      result.table_build_seconds += shard.table_build_seconds;
      result.dissemination_seconds += shard.dissemination_seconds;
      result.peak_table_bytes =
          std::max(result.peak_table_bytes, shard.peak_table_bytes);
      result.peak_queue_bytes =
          std::max(result.peak_queue_bytes, shard.peak_queue_bytes);
      result.peak_bookkeeping_bytes = std::max(result.peak_bookkeeping_bytes,
                                               shard.peak_bookkeeping_bytes);
    }
    result.points.push_back(std::move(point));
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  return result;
}

}  // namespace dam::exp

// Thread-pooled sweep execution.
//
// run_sweep fans the (sweep point × run index) grid of a scenario out
// across N worker threads and reduces the per-run results into one
// aggregate per sweep point. Three properties are load-bearing:
//
//   * Deterministic sharded seeding — every run's engine seed is a pure
//     function of (base_seed, sweep point, run index), via
//     Scenario::config_for. Thread identity never touches the seed, so the
//     SET of runs executed is identical for every --jobs value.
//   * Jobs-independent reduction order — each sweep point's run range is
//     cut into a fixed number of contiguous shards (a constant in
//     runner.cpp, independent of the worker count). A shard is always
//     aggregated sequentially in run order by one worker, and shard
//     partials are merged in shard order afterwards. Floating-point
//     aggregation is not associative, so this fixed shape is what makes
//     aggregates BIT-IDENTICAL for any --jobs value
//     (tests/exp/runner_test.cpp pins it).
//   * Constant memory — workers stream runs into Welford partials
//     (exp/aggregate); memory is O(points × shards), never O(runs).
//
// The pool itself (util::run_parallel) is the shared work-stealing
// scheduler in util/parallel: tasks are dealt to per-worker deques up
// front; a worker drains its own deque from the back and steals from the
// front of its neighbors' when it runs dry. Shards of heavyweight points (large groups,
// low alive fractions) thus migrate to idle workers instead of serializing
// behind one thread. `--jobs` controls THIS cross-run pool; the orthogonal
// intra-run knob (Scenario::threads, `--threads`) parallelizes inside one
// engine run and rides the same scheduler.
#pragma once

#include <cstdint>
#include <vector>

#include "exp/aggregate.hpp"
#include "sim/scenario.hpp"

namespace dam::exp {

struct RunnerOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  unsigned jobs = 0;
};

/// One executed sweep: the aggregates plus the throughput counters the
/// bench reporter records.
struct SweepResult {
  std::vector<ScenarioPoint> points;  ///< one per Scenario::alive_sweep entry
  double wall_seconds = 0.0;
  std::uint64_t total_runs = 0;    ///< engine runs executed
  std::uint64_t total_events = 0;  ///< messages sent across all runs
  unsigned jobs = 1;               ///< resolved cross-run worker count

  /// Resolved INTRA-run worker count (Scenario::threads). Reported in the
  /// bench JSON so perf trajectories can tell the two parallelism levels
  /// apart.
  unsigned threads = 1;

  /// Per-run engine time summed across all runs (CPU-seconds, not wall:
  /// runs overlap across workers), split into membership-table
  /// construction vs dissemination — the split that shows where giant
  /// groups spend their time. Both lanes report it: frozen runs split
  /// CSR-table build vs gossip waves, dynamic runs split spawn_group
  /// (row sampling + node wiring) vs stream replay.
  double table_build_seconds = 0.0;
  double dissemination_seconds = 0.0;

  /// Largest contiguous membership-arena footprint of any single run
  /// (frozen: core::GroupTables; dynamic: the logical CSR bytes of the
  /// spawn-batch rows, DamSystem::view_arena_bytes).
  std::size_t peak_table_bytes = 0;

  /// Largest in-flight transport-queue footprint of any single run
  /// (dynamic lane only; 0 for frozen sweeps): fan-out headers and
  /// targets, control arenas, and interned event bodies at the high-water
  /// round. Logical
  /// bytes, so bit-identical for every --jobs/--threads value.
  std::size_t peak_queue_bytes = 0;

  /// Largest per-process bookkeeping footprint of any single run: the
  /// worst flight-recorder window's seen-column + delivered-set +
  /// request-set bytes (dynamic lane) or delivered-bitmap bytes (frozen
  /// lane). Logical bytes, so bit-identical for every --jobs/--threads
  /// value — the measurand of bench_diff's bookkeeping gate.
  std::size_t peak_bookkeeping_bytes = 0;
};

/// Executes the scenario's full (alive sweep × runs) grid and returns one
/// aggregated point per sweep entry. Dispatches on Scenario::engine: frozen
/// scenarios run core/run_frozen_simulation, dynamic scenarios replay their
/// workload stream through core/system (workload/driver) — both through
/// the same pool, sharded reduction, and reporters. Aggregates are
/// bit-identical for any `options.jobs`.
[[nodiscard]] SweepResult run_sweep(const sim::Scenario& scenario,
                                    const RunnerOptions& options = {});

}  // namespace dam::exp

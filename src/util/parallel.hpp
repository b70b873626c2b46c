// Shared work-stealing pool — the one scheduler behind both parallelism
// levels of the lab.
//
// run_parallel executes a fixed range of indexed tasks across N workers:
// tasks are dealt round-robin to per-worker deques up front; a worker
// drains its own deque from the back (LIFO, cache-warm end) and steals from
// the front of its neighbors' when it runs dry. Tasks never enqueue new
// tasks, so one full empty scan means the pool is drained.
//
// Two layers drive it:
//   * exp/runner — cross-run parallelism: one task per (sweep point,
//     shard), `--jobs` workers;
//   * core/frozen_sim + core/system — intra-run parallelism: one task per
//     frontier/row chunk, `threads` workers (FrozenSimConfig::threads /
//     DamSystem::Config::threads).
// Both keep results independent of the worker count the same way: the
// task LIST and every task's RNG stream are pure functions of the config,
// and results are merged in task order — worker identity never touches an
// outcome, only timing.
#pragma once

#include <cstddef>
#include <functional>

namespace dam::util {

/// Resolves a thread-count knob (0 -> hardware concurrency, min 1).
[[nodiscard]] unsigned resolve_threads(unsigned threads);

/// Runs task(0) .. task(count - 1) exactly once each across `threads`
/// workers (work-stealing; see file comment). Blocks until all tasks
/// finish. If tasks throw, one of the exceptions is rethrown after the
/// pool drains. Never spawns more workers than there are tasks; the
/// calling thread is worker 0, and with one worker the tasks run inline,
/// in index order.
void run_parallel(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& task);

}  // namespace dam::util

// Steady-state baseline engines — the head-to-head rivals, run on the SAME
// generated workload stream as the daMulticast protocol.
//
// src/baselines' run_broadcast / run_hierarchical answer the paper's
// analytical single-burst comparisons; the sustained-service lane needs
// the same rivals as *stream engines*: replaying a workload/traffic
// EventStream (multi-publisher steady arrivals, churn, joins) round by
// round and producing a workload::DynamicRunResult, so exp/aggregate,
// exp/report, and the damlab-bench-v1 schema compare protocol vs baselines
// cell for cell — reliability, latency percentiles, control overhead, and
// peak bookkeeping bytes on one table.
//
// Two engines, dispatched on Scenario::engine:
//
//   * kBaselineTree — Scribe-style dissemination trees: each group is a
//     k-ary tree over its members (join order = heap slot), group roots
//     chain along the scenario hierarchy. A publication routes up the
//     publisher's tree to its group root, spreads down that tree, and
//     hops root-to-root toward ancestor groups. Deterministic single-path
//     routing: no redundancy, so one dead interior node or one lost link
//     (psucc) silently prunes a whole subtree — the fragility the
//     epidemic protocol pays extra messages to avoid. Control traffic is
//     one heartbeat per tree edge per maintenance period; per-process
//     bookkeeping is none (routing is stateless).
//
//   * kBaselineGossip — one interest-agnostic gossip group over the WHOLE
//     population (the "single flat group" strawman of the paper's Sec. II):
//     infect-and-die forwarding to ceil(ln N + c) uniform targets per
//     first reception. Every process receives every event — uninterested
//     receptions are the parasite cost — and each event's delivered set,
//     which doubles as its duplicate filter, spans ALL processes until the
//     event is retired.
//
// Determinism: a run is a pure function of (scenario, alive_fraction,
// run) — the stream comes from workload::generate_stream under the
// (base_seed, stream, index) contract and the engine's own coin sequence
// is one serial Rng seeded from the kSystem stream cell. The replay is
// fully serial, so results are bit-identical for every --threads value,
// and exp::run_sweep's fixed shard merge keeps sweeps bit-identical for
// every --jobs value.
#pragma once

#include "sim/scenario.hpp"
#include "workload/driver.hpp"

namespace dam::baselines {

/// Executes one steady-baseline run; `scenario.engine` must be
/// kBaselineTree or kBaselineGossip (throws std::invalid_argument
/// otherwise, or when the topology is not a tree). Honors the scenario's
/// workload config including churn, joins, and the sustained-service GC
/// knob (EngineConfig::gc_horizon > 0 retires harvested publications in
/// both engines).
[[nodiscard]] workload::DynamicRunResult run_steady_baseline(
    const sim::Scenario& scenario, double alive_fraction, int run);

}  // namespace dam::baselines

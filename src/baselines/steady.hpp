// Steady-state baseline engines — the head-to-head rivals of the
// daMulticast protocol, replayed by the same harness.
//
// src/baselines' run_broadcast / run_hierarchical answer the paper's
// analytical single-burst comparisons; the sustained-service lane needs
// the same rivals as *stream engines*. Each is a workload::StreamEngine:
// workload::replay_stream (workload/driver) owns the stream, the failure
// schedule, the round loop, the publisher choice, deadline grading and
// the collection, exactly as for the protocol's DamSystem, so the rivals
// see the protocol's stream, churn and publishers and return the same
// DynamicRunResult. exp/aggregate, exp/report and the damlab-bench-v1
// schema then compare protocol vs baselines cell for cell — reliability,
// latency percentiles, control overhead, and peak bookkeeping bytes on
// one table. This file keeps only what the rivals do differently:
// per-message forwarding, their delivered/dedup state, gauges and queue
// bytes. Every send, publish and delivery is counted through one
// sim::Metrics with the same calls DamSystem makes, so both sides of the
// comparison are counted by the same code.
//
// Two engines, dispatched on Scenario::engine:
//
//   * kBaselineTree — Scribe-style dissemination trees: each group is a
//     k-ary tree over its members (join order = heap slot), group roots
//     chain along the scenario's TopicDag, which must be a tree. A
//     publication routes up the publisher's tree to its group root,
//     spreads down that tree, and hops root-to-root toward ancestor
//     groups. Deterministic single-path routing: no redundancy, so one
//     dead interior node or one lost link (psucc) silently prunes a whole
//     subtree — the fragility the epidemic protocol pays extra messages
//     to avoid. Control traffic is one heartbeat per tree edge per
//     maintenance period; per-process bookkeeping is none (routing is
//     stateless).
//
//   * kBaselineGossip — one interest-agnostic gossip group over the WHOLE
//     population (the "single flat group" strawman of the paper's Sec. II):
//     infect-and-die forwarding to ceil(ln N + c) uniform targets per
//     first reception. Every process receives every event — uninterested
//     receptions are the parasite cost — and each event's delivered set,
//     which doubles as its duplicate filter, spans ALL processes until the
//     event is retired.
//
// Determinism: the engine's own coin sequence is one serial Rng seeded
// from the kSystem stream cell the harness hands every engine. The replay
// is fully serial, so results are bit-identical for every --threads value,
// and exp::run_sweep's fixed shard merge keeps sweeps bit-identical for
// every --jobs value.
#pragma once

#include "sim/scenario.hpp"
#include "workload/driver.hpp"

namespace dam::baselines {

/// Executes one steady-baseline run through workload::replay_stream;
/// `scenario.engine` must be kBaselineTree or kBaselineGossip (throws
/// std::invalid_argument otherwise, or when the harness's topology check
/// rejects the scenario). `dag` must come from scenario.build_dag(); it is
/// shared read-only, so one DAG serves every worker thread of a sweep.
/// Honors the scenario's workload config including churn, joins, and the
/// sustained-service GC knob (EngineConfig::gc_horizon > 0 retires
/// harvested publications).
[[nodiscard]] workload::DynamicRunResult run_steady_baseline(
    const sim::Scenario& scenario, const topics::TopicDag& dag,
    double alive_fraction, int run);

}  // namespace dam::baselines

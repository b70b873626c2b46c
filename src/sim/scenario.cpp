// The scenario layer: registry presets and topology/config building.
// Execution lives in exp/runner, aggregation in exp/aggregate.
#include "sim/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

namespace dam::sim {

topics::TopicDag Scenario::build_dag() const {
  topics::TopicDag dag;
  for (const std::string& topic : topic_names) dag.add_topic(topic);
  for (const auto& [child, parent] : super_edges) {
    if (child >= dag.size() || parent >= dag.size()) {
      throw std::invalid_argument("Scenario: edge references unknown topic");
    }
    dag.add_super(topics::TopicId{child}, topics::TopicId{parent});
  }
  return dag;
}

std::uint64_t Scenario::seed_for(double alive_fraction,
                                 int run) const noexcept {
  return base_seed + static_cast<std::uint64_t>(run) * 7919 +
         static_cast<std::uint64_t>(std::lround(alive_fraction * 1000.0));
}

core::FrozenSimConfig Scenario::config_for(const topics::TopicDag& dag,
                                           double alive_fraction,
                                           int run) const {
  core::FrozenSimConfig config;
  config.dag = &dag;
  config.group_sizes = group_sizes;
  config.params = params;
  config.alive_fraction = alive_fraction;
  config.failure_mode = failure_mode;
  config.churn = churn;
  config.publish_topic = topics::TopicId{publish_topic};
  config.seed = seed_for(alive_fraction, run);
  config.threads = threads;
  return config;
}

const core::TopicParams& homogeneous_params(const Scenario& scenario,
                                           std::string_view caller) {
  static const core::TopicParams kDefaults{};
  if (scenario.params.empty()) return kDefaults;
  const core::TopicParams& first = scenario.params.front();
  for (const core::TopicParams& entry : scenario.params) {
    const bool same = entry.b == first.b && entry.c == first.c &&
                      entry.g == first.g && entry.a == first.a &&
                      entry.z == first.z && entry.tau == first.tau &&
                      entry.psucc == first.psucc;
    if (!same) {
      throw std::invalid_argument(
          std::string(caller) +
          ": this engine applies one TopicParams set to every process; "
          "scenario '" + scenario.name + "' has heterogeneous per-topic "
          "params (run it on the frozen engine, or make the params uniform)");
    }
  }
  return first;
}

Scenario make_linear_scenario(std::string name, std::string summary,
                              std::vector<std::size_t> sizes) {
  Scenario scenario;
  scenario.name = std::move(name);
  scenario.summary = std::move(summary);
  for (std::uint32_t level = 0; level < sizes.size(); ++level) {
    // Built with += rather than operator+ to sidestep GCC's -Wrestrict
    // false positive on inlined string concatenation (GCC bug 105329).
    std::string topic = "T";
    topic += std::to_string(level);
    scenario.topic_names.push_back(std::move(topic));
    if (level > 0) scenario.super_edges.emplace_back(level, level - 1);
  }
  scenario.group_sizes = std::move(sizes);
  scenario.publish_topic =
      static_cast<std::uint32_t>(scenario.topic_names.size() - 1);
  return scenario;
}

namespace {

std::vector<double> full_sweep() {
  return {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
}

/// Shared skeleton of the steady-lane presets: the sustained-service
/// generator (8 publishers over 192 rounds with a flashcrowd overlay
/// every 64) on the paper's 10/100/1000 hierarchy, seen-column GC at 64
/// rounds (> the 20-round deadline window). The engine kind is overridden
/// per preset; the shared base_seed is what makes the protocol and both
/// baselines replay one stream.
Scenario make_steady_scenario(std::string name, std::string summary) {
  Scenario s = make_linear_scenario(std::move(name), std::move(summary),
                                    {10, 100, 1000});
  s.engine = EngineKind::kDynamic;
  s.workload.steady.publishers = 8;
  s.workload.steady.rate = 0.02;
  s.workload.steady.burst_every = 64;
  s.workload.steady.burst_size = 4;
  s.workload.steady.burst_width = 2;
  s.workload.arrival.horizon = 192;
  s.workload.popularity.kind = workload::PopularityKind::kUniform;
  s.workload.engine.drain_rounds = 20;
  s.workload.engine.gc_horizon = 64;
  s.runs = 3;
  s.base_seed = 0x57D;
  return s;
}

std::vector<Scenario> build_registry() {
  std::vector<Scenario> presets;

  // --- Paper figures (Sec. VII): linear T0 ⊃ T1 ⊃ T2, 10/100/1000. -------
  {
    Scenario s = make_linear_scenario(
        "fig8",
        "Fig. 8: events sent in each group, stillborn failures; at alive=1 "
        "expect S·⌈ln S+c⌉ = 80/1000/12000 intra events (T0/T1/T2)",
        {10, 100, 1000});
    s.alive_sweep = full_sweep();
    s.runs = 60;
    s.base_seed = 0xF18;
    presets.push_back(std::move(s));
  }
  {
    Scenario s = make_linear_scenario(
        "fig9",
        "Fig. 9: intergroup events per boundary, stillborn failures; at "
        "alive=1 expect sent = g = 5, recv = g·psucc = 4.25 per boundary",
        {10, 100, 1000});
    s.alive_sweep = full_sweep();
    s.runs = 200;
    s.base_seed = 0xF19;
    presets.push_back(std::move(s));
  }
  {
    Scenario s = make_linear_scenario(
        "fig10",
        "Fig. 10: reliability under stillborn failures; expect T2 ≥ T1 ≥ T0 "
        "at every alive fraction, all rising toward 1 as alive → 1",
        {10, 100, 1000});
    s.alive_sweep = full_sweep();
    s.runs = 200;
    s.base_seed = 0xF10;
    presets.push_back(std::move(s));
  }
  {
    Scenario s = make_linear_scenario(
        "fig11",
        "Fig. 11: reliability under dynamically perceived failures; expect "
        "every column to dominate fig10's at the same alive fraction",
        {10, 100, 1000});
    s.failure_mode = core::FrozenFailureMode::kDynamicPerception;
    s.alive_sweep = full_sweep();
    s.runs = 200;
    s.base_seed = 0xF11;
    presets.push_back(std::move(s));
  }
  {
    // Not a paper figure: the per-group first/full delivery-round columns
    // of the frozen table (first = the group's first member delivers, full
    // = its last alive member does, over delivering runs).
    Scenario s = make_linear_scenario(
        "latency",
        "Propagation latency (rounds): T2 covers itself in ~3-4; T1's first "
        "delivery trails T2's spread by ~1-2, T0's by ~2-4; fewer alive, "
        "slower",
        {10, 100, 1000});
    s.alive_sweep = {0.4, 0.6, 0.8, 1.0};
    s.runs = 150;
    s.base_seed = 0x1A7;
    presets.push_back(std::move(s));
  }

  // --- DAG topologies (the conclusion's multiple-inheritance extension). --
  {
    Scenario s;
    s.name = "dag-diamond";
    s.summary =
        "Diamond DAG (B under M1+M2 under A): redundancy of two upward paths";
    s.topic_names = {"A", "M1", "M2", "B"};
    s.super_edges = {{1, 0}, {2, 0}, {3, 1}, {3, 2}};
    s.group_sizes = {10, 50, 50, 1000};
    core::TopicParams params;
    params.psucc = 0.6;  // lossy, so upward-path redundancy is visible
    s.params = {params};
    s.publish_topic = 3;
    s.runs = 200;
    s.base_seed = 0xD1A;
    presets.push_back(std::move(s));
  }
  {
    // dag-diamond's control: the same knobs, seed and populations with the
    // two 50-process mid groups merged into one, so one invocation over
    // both presets compares the topologies run for run.
    Scenario s = presets.back();
    s.name = "dag-linear";
    s.summary =
        "Chain A ⊃ M ⊃ B for dag-diamond: the diamond pays one election per "
        "parent and z more entries per B-member, and A delivers more often";
    s.topic_names = {"A", "M", "B"};
    s.super_edges = {{1, 0}, {2, 1}};
    s.group_sizes = {10, 100, 1000};
    s.publish_topic = 2;
    presets.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "dag-wide";
    s.summary =
        "Three-parent DAG: one bottom topic feeding three disjoint supers";
    s.topic_names = {"P1", "P2", "P3", "B"};
    s.super_edges = {{3, 0}, {3, 1}, {3, 2}};
    s.group_sizes = {30, 30, 30, 600};
    s.publish_topic = 3;
    s.alive_sweep = {0.6, 0.8, 1.0};
    s.runs = 120;
    s.base_seed = 0xDA6;
    presets.push_back(std::move(s));
  }

  // --- Failure-regime and knob studies. -----------------------------------
  {
    Scenario s = make_linear_scenario(
        "churn",
        "Deep hierarchy under heavy perceived churn (weak membership)",
        {10, 50, 100, 500, 1000});
    s.failure_mode = core::FrozenFailureMode::kDynamicPerception;
    s.alive_sweep = {0.3, 0.5, 0.7, 0.9};
    s.runs = 120;
    s.base_seed = 0xC4B;
    presets.push_back(std::move(s));
  }
  {
    // Real crash/recovery outages (sim::ChurnFailures schedules), not the
    // perceived-failure proxy above: every process suffers one short
    // outage somewhere in the dissemination window.
    Scenario s = make_linear_scenario(
        "churn-light",
        "Crash/recovery schedule: 1 outage of 2 rounds per process",
        {10, 100, 1000});
    s.failure_mode = core::FrozenFailureMode::kChurn;
    s.churn = core::FrozenChurnConfig{/*outages=*/1, /*outage_length=*/2,
                                      /*horizon=*/16};
    s.runs = 150;
    s.base_seed = 0xC41;
    presets.push_back(std::move(s));
  }
  {
    Scenario s = make_linear_scenario(
        "churn-heavy",
        "Crash/recovery schedule: 3 outages of 5 rounds per process",
        {10, 100, 1000});
    s.failure_mode = core::FrozenFailureMode::kChurn;
    s.churn = core::FrozenChurnConfig{/*outages=*/3, /*outage_length=*/5,
                                      /*horizon=*/16};
    s.runs = 150;
    s.base_seed = 0xC43;
    presets.push_back(std::move(s));
  }
  // --- Dynamic lane (workload streams through core/system). ---------------
  // These run the full message-passing engine: multi-publication traffic,
  // membership gossip, bootstrap, and (for churn) mid-run joins and
  // crash/recover outages. The alive sweep is the stillborn fraction of
  // the initial population, as in the frozen lane.
  {
    Scenario s = make_linear_scenario(
        "zipf-storm",
        "Dynamic: Poisson arrivals, Zipf topic skew over the hierarchy",
        {10, 100, 1000});
    s.engine = EngineKind::kDynamic;
    s.workload.arrival.kind = workload::ArrivalKind::kPoisson;
    s.workload.arrival.rate = 0.8;
    s.workload.arrival.horizon = 30;
    s.workload.popularity.kind = workload::PopularityKind::kZipf;
    s.workload.popularity.zipf_s = 1.0;
    s.workload.engine.drain_rounds = 20;
    s.alive_sweep = {0.7, 0.85, 1.0};
    s.runs = 30;
    s.base_seed = 0x21F;
    presets.push_back(std::move(s));
  }
  {
    Scenario s = make_linear_scenario(
        "flashcrowd",
        "Dynamic: 3 publication bursts over a quiet background stream",
        {10, 100, 1000});
    s.engine = EngineKind::kDynamic;
    s.workload.arrival.kind = workload::ArrivalKind::kFlashcrowd;
    s.workload.arrival.rate = 0.1;
    s.workload.arrival.horizon = 24;
    s.workload.arrival.bursts = 3;
    s.workload.arrival.burst_size = 15;
    s.workload.arrival.burst_width = 2;
    s.workload.engine.drain_rounds = 20;
    s.alive_sweep = {0.85, 1.0};
    s.runs = 30;
    s.base_seed = 0xF1C;
    presets.push_back(std::move(s));
  }
  {
    Scenario s = make_linear_scenario(
        "churn-subscribe-heavy",
        "Dynamic: joins, leaves and crash/recover under steady traffic",
        {10, 50, 200});
    s.engine = EngineKind::kDynamic;
    s.workload.arrival.kind = workload::ArrivalKind::kPoisson;
    s.workload.arrival.rate = 0.5;
    s.workload.arrival.horizon = 30;
    s.workload.popularity.kind = workload::PopularityKind::kUniform;
    s.workload.churn.crash_fraction = 0.6;
    s.workload.churn.crash_length = 4;
    s.workload.churn.leave_fraction = 0.15;
    s.workload.churn.joins = 80;
    s.workload.engine.drain_rounds = 20;
    s.runs = 40;
    s.base_seed = 0xC5B;
    presets.push_back(std::move(s));
  }
  {
    // FIND_SUPER_CONTACT (Fig. 4) at cold start: no pre-wired supertopic
    // tables and no traffic, so the run measures how long and how much
    // control traffic it takes until every non-root process holds a table
    // for its direct supertopic. Run it with --grid "depth=2:5 scale=1,3":
    // depth rebuilds an all-10 chain, and scale then makes every level 30.
    Scenario s = make_linear_scenario(
        "bootstrap-cold",
        "Cold-start FIND_SUPER_CONTACT, no traffic: rounds-to-link grows "
        "mildly with depth; control is mostly the 1-per-round membership "
        "gossip",
        {10, 10, 10});
    s.engine = EngineKind::kDynamic;
    s.workload.arrival.kind = workload::ArrivalKind::kScheduled;
    s.workload.arrival.count = 0;
    s.workload.arrival.horizon = 16;
    s.workload.engine.auto_wire_super_tables = false;
    s.workload.engine.neighborhood_degree = 5;
    s.workload.engine.warmup_rounds = 0;
    s.workload.engine.drain_rounds = 0;
    s.runs = 5;
    s.base_seed = 0xB00;
    presets.push_back(std::move(s));
  }
  // The event-recovery extension (lpbcast-style digests and requests, the
  // paper's reference [6]) against the base protocol, which never
  // retransmits. The pair differs only in recovery_enabled; sweep the
  // channel with --grid "psucc=0.3:0.9:0.2".
  for (const bool recovery : {false, true}) {
    Scenario s = make_linear_scenario(
        recovery ? "recovery" : "recovery-base",
        recovery ? "Event recovery on: its delivery gain over recovery-base "
                   "is largest at psucc 0.3-0.5, paid in retransmissions "
                   "and digests"
                 : "Event recovery off: the base protocol, 3 publications "
                   "on 10/30/80; the control for the recovery preset",
        {10, 30, 80});
    s.engine = EngineKind::kDynamic;
    s.workload.arrival.kind = workload::ArrivalKind::kScheduled;
    s.workload.arrival.count = 3;
    s.workload.arrival.horizon = 51;  // publications at rounds 0/17/34
    s.workload.engine.warmup_rounds = 3;
    s.workload.engine.drain_rounds = 25;
    s.workload.engine.recovery_enabled = recovery;
    s.workload.engine.recovery_history = 32;
    s.workload.engine.recovery_digest = 8;
    s.runs = 200;  // resolves the gain at psucc 0.3-0.7
    s.base_seed = 0xEC0;
    presets.push_back(std::move(s));
  }

  // --- Giant groups (the million-user north star). ------------------------
  // One engine run dominates these; runs are few and the interest is the
  // table-build vs dissemination wall split in the bench JSON. Scale the
  // sizes with the `scale` grid knob (e.g. --grid "scale=10" for S=1e6) and
  // the hierarchy depth with `depth`.
  {
    Scenario s = make_linear_scenario(
        "giant-flat", "One group of 100k subscribers (scale=10 for 1M)",
        {100000});
    s.runs = 3;
    s.base_seed = 0x61A;
    presets.push_back(std::move(s));
  }
  {
    Scenario s = make_linear_scenario(
        "giant-deep",
        "Eight-level hierarchy, 10 to 100k per level (scale=10 for 1M)",
        {10, 30, 100, 300, 1000, 3000, 10000, 100000});
    s.runs = 3;
    s.base_seed = 0x61D;
    presets.push_back(std::move(s));
  }
  // The dynamic counterparts: the full message-passing engine (membership
  // gossip, transport, per-delivery latency) at giant scale, feasible
  // because spawn_group samples every initial view into one shared CSR
  // arena (core::GroupViewArena) instead of S per-node vectors. One
  // scheduled publication, short drain; CI runs giant-dynamic at scale=10
  // (S = 10⁶) under a wall budget.
  {
    Scenario s = make_linear_scenario(
        "giant-dynamic",
        "Dynamic engine, one group of 100k: arena-backed views (scale=10 for 1M)",
        {100000});
    s.engine = EngineKind::kDynamic;
    s.workload.arrival.kind = workload::ArrivalKind::kScheduled;
    s.workload.arrival.count = 1;
    s.workload.arrival.horizon = 2;
    s.workload.engine.warmup_rounds = 0;
    s.workload.engine.drain_rounds = 12;
    s.runs = 2;
    s.base_seed = 0x61E;
    presets.push_back(std::move(s));
  }
  {
    Scenario s = make_linear_scenario(
        "giant-dynamic-deep",
        "Dynamic five-level hierarchy, 10 to 100k per level (scale=10 for 1M)",
        {10, 100, 1000, 10000, 100000});
    s.engine = EngineKind::kDynamic;
    s.workload.arrival.kind = workload::ArrivalKind::kScheduled;
    s.workload.arrival.count = 1;
    s.workload.arrival.horizon = 2;
    s.workload.engine.warmup_rounds = 0;
    // Five levels = four intergroup hops plus intra-group spread per
    // level; a 24-round drain lets the event reach the top group. With
    // the paper's default budget (g=5, a=1, z=3) each upward boundary
    // still fails with probability ~e^-3 per publication, so a single
    // publication's chain dies somewhere in ~15% of runs — the top
    // group's delivery column fluctuating to 0 is the Sec. VI tradeoff,
    // not a wiring bug (raise g or runs to smooth it).
    s.workload.engine.drain_rounds = 24;
    s.runs = 2;
    s.base_seed = 0x61F;
    presets.push_back(std::move(s));
  }

  // --- Sustained service (steady lane). -----------------------------------
  // Long-horizon multi-publisher traffic from workload.steady: P concurrent
  // publishers, each with a Poisson rate and a home topic, plus a
  // synchronized flashcrowd overlay — hundreds of rounds instead of the
  // one-burst streams above. gc_horizon keeps per-process bookkeeping
  // bounded over the horizon (sweep "gc_horizon=0,64" to see the
  // peak_bookkeeping_bytes timelines diverge). steady-state, steady-tree
  // and steady-gossip share one base_seed, so all three engines replay the
  // IDENTICAL stream — one damlab invocation over the three scenarios is
  // the protocol-vs-baselines head-to-head on one damlab-bench-v1 table
  // (scale it with --grid "scale=100" for S=1e5).
  {
    Scenario s = make_steady_scenario(
        "steady-state",
        "Steady lane: 8 publishers, 192 rounds, seen-column GC at 64 rounds");
    presets.push_back(std::move(s));
  }
  {
    Scenario s = make_steady_scenario(
        "steady-churn",
        "Steady lane under churn: crashes, leaves and joins over 192 rounds");
    s.workload.churn.crash_fraction = 0.3;
    s.workload.churn.crash_length = 4;
    s.workload.churn.leave_fraction = 0.05;
    s.workload.churn.joins = 30;
    s.base_seed = 0x57C;
    presets.push_back(std::move(s));
  }
  {
    Scenario s = make_steady_scenario(
        "steady-tree",
        "Steady baseline: Scribe-style per-group trees on the same stream");
    s.engine = EngineKind::kBaselineTree;
    presets.push_back(std::move(s));
  }
  {
    Scenario s = make_steady_scenario(
        "steady-gossip",
        "Steady baseline: interest-agnostic flat gossip on the same stream");
    s.engine = EngineKind::kBaselineGossip;
    presets.push_back(std::move(s));
  }

  {
    Scenario s = make_linear_scenario(
        "ablation-lean",
        "Minimal intergroup budget (g=1, a=1, z=1) on lossy channels",
        {10, 100, 500});
    core::TopicParams params;
    params.g = 1.0;
    params.a = 1.0;
    params.z = 1;
    params.psucc = 0.5;
    s.params = {params};
    s.alive_sweep = {1.0};
    s.runs = 250;
    s.base_seed = 0xAB1;
    presets.push_back(std::move(s));
  }
  {
    Scenario s = make_linear_scenario(
        "ablation-aggressive",
        "Aggressive intergroup budget (g=20, a=3, z=8) on lossy channels",
        {10, 100, 500});
    core::TopicParams params;
    params.g = 20.0;
    params.a = 3.0;
    params.z = 8;
    params.psucc = 0.5;
    s.params = {params};
    s.alive_sweep = {1.0};
    s.runs = 250;
    s.base_seed = 0xAB2;
    presets.push_back(std::move(s));
  }
  {
    // The (g, a, z) knobs one at a time around the paper's defaults, on
    // channels lossy enough to show the trade-off: run it with the grids
    // "g=1,2,5,10,20", "a=1:3" and "z=1,2,3,5,8". (τ drives maintenance,
    // which only the dynamic engine runs, so the grid rejects "tau" here.)
    Scenario s = make_linear_scenario(
        "ablation-knobs",
        "Knob ablation at psucc=0.5: g scales intergroup msgs ~linearly and "
        "lifts T0 delivery; a buys hop reliability; z at fixed a keeps msgs "
        "flat",
        {10, 100, 500});
    core::TopicParams params;
    params.psucc = 0.5;
    s.params = {params};
    s.runs = 250;
    s.base_seed = 0xAB0;
    presets.push_back(std::move(s));
  }

  return presets;
}

}  // namespace

const std::vector<Scenario>& scenario_registry() {
  static const std::vector<Scenario> kRegistry = build_registry();
  return kRegistry;
}

const Scenario* find_scenario(std::string_view name) {
  for (const Scenario& scenario : scenario_registry()) {
    if (scenario.name == name) return &scenario;
  }
  return nullptr;
}

void print_registry(std::ostream& out) {
  std::size_t width = 0;
  for (const Scenario& scenario : scenario_registry()) {
    width = std::max(width, scenario.name.size());
  }
  out << "available scenarios:\n";
  for (const Scenario& scenario : scenario_registry()) {
    out << "  " << scenario.name;
    for (std::size_t pad = scenario.name.size(); pad < width + 3; ++pad) {
      out << ' ';
    }
    out << scenario.summary << "\n";
  }
  out << "\nrun one with: damlab --scenario=<name>\n";
}

}  // namespace dam::sim

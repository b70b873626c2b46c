#include "workload/driver.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "core/system.hpp"
#include "net/message.hpp"
#include "sim/failure.hpp"

namespace dam::workload {

namespace {

/// "Never recovers" sentinel for leave/stillborn downtime intervals. Far
/// past any replay horizon, well inside Round's range.
constexpr sim::Round kNever = sim::Round{1} << 30;

/// The dynamic engine configures every DamNode identically (one
/// NodeConfig per system), so it can only honor a HOMOGENEOUS params set.
/// Heterogeneous per-topic params — which the frozen engine resolves
/// per topic — would be silently flattened; fail loudly instead.
const core::TopicParams& homogeneous_params(const sim::Scenario& scenario) {
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
          "run_dynamic_simulation: the dynamic engine applies one "
          "TopicParams set to every node; scenario '" +
          scenario.name + "' has heterogeneous per-topic params "
          "(run it on the frozen engine, or make the params uniform)");
    }
  }
  return first;
}

}  // namespace

DynamicScenarioBinding bind_scenario(const sim::Scenario& scenario) {
  const std::size_t count = scenario.topic_names.size();
  if (count == 0) {
    throw std::invalid_argument("bind_scenario: scenario has no topics");
  }
  if (scenario.group_sizes.size() != count) {
    throw std::invalid_argument(
        "bind_scenario: group_sizes must cover every topic");
  }
  // The dynamic engine runs over a TopicHierarchy: every topic has at most
  // one parent. Reject DAG shapes up front.
  std::vector<std::optional<std::uint32_t>> parent(count);
  for (const auto& [child, topic_parent] : scenario.super_edges) {
    if (child >= count || topic_parent >= count) {
      throw std::invalid_argument("bind_scenario: edge references unknown topic");
    }
    if (parent[child].has_value()) {
      throw std::invalid_argument(
          "bind_scenario: topic '" + scenario.topic_names[child] +
          "' has multiple parents; the dynamic engine needs a tree "
          "(run DAG scenarios on the frozen engine)");
    }
    parent[child] = topic_parent;
  }

  DynamicScenarioBinding binding;
  binding.topic_ids.resize(count);
  binding.is_scenario_root.resize(count);
  // A single scenario root maps onto the hierarchy root "." itself — the
  // paper's setting, where the top group IS the root group. This matters
  // behaviorally: root processes never run FIND_SUPER_CONTACT, whereas a
  // top group parked one level below the root would flood the overlay
  // searching for a supergroup that can never exist. With several roots
  // (a forest) each becomes a child of ".".
  std::size_t root_count = 0;
  std::size_t single_root = count;  // sentinel: no root-mapping
  for (std::size_t topic = 0; topic < count; ++topic) {
    if (!parent[topic].has_value()) {
      ++root_count;
      single_root = topic;
    }
  }
  if (root_count != 1) single_root = count;

  // Intern each topic as the path of scenario names from its root down;
  // recursion depth equals the tree depth, realized iteratively via memo.
  std::vector<topics::TopicPath> paths(count);
  std::vector<bool> built(count, false);
  for (std::size_t topic = 0; topic < count; ++topic) {
    // Walk up to the nearest built ancestor, then build back down.
    std::vector<std::size_t> chain;
    std::size_t cursor = topic;
    while (!built[cursor]) {
      chain.push_back(cursor);
      if (!parent[cursor].has_value()) break;
      cursor = *parent[cursor];
      if (chain.size() > count) {
        throw std::invalid_argument("bind_scenario: topology has a cycle");
      }
    }
    for (std::size_t i = chain.size(); i-- > 0;) {
      const std::size_t node = chain[i];
      if (node == single_root) {
        paths[node] = topics::TopicPath{};  // the hierarchy root "."
        built[node] = true;
        continue;
      }
      if (!topics::valid_segment(scenario.topic_names[node])) {
        throw std::invalid_argument("bind_scenario: topic name '" +
                                    scenario.topic_names[node] +
                                    "' is not a valid path segment");
      }
      const topics::TopicPath base =
          parent[node].has_value() ? paths[*parent[node]] : topics::TopicPath{};
      paths[node] = base.child(scenario.topic_names[node]);
      built[node] = true;
    }
  }
  for (std::size_t topic = 0; topic < count; ++topic) {
    binding.topic_ids[topic] = binding.hierarchy.add(paths[topic]);
    binding.is_scenario_root[topic] = !parent[topic].has_value();
  }
  // Name collisions (two scenario topics interning to one path) would
  // silently merge groups; fail instead.
  for (std::size_t a = 0; a < count; ++a) {
    for (std::size_t b = a + 1; b < count; ++b) {
      if (binding.topic_ids[a] == binding.topic_ids[b]) {
        throw std::invalid_argument("bind_scenario: topics '" +
                                    scenario.topic_names[a] + "' and '" +
                                    scenario.topic_names[b] +
                                    "' collide in the hierarchy");
      }
    }
  }
  return binding;
}

DynamicRunResult run_dynamic_simulation(const sim::Scenario& scenario,
                                        const DynamicScenarioBinding& binding,
                                        double alive_fraction, int run,
                                        sim::TraceRecorder* trace) {
  const auto started = std::chrono::steady_clock::now();
  const std::uint64_t seed = scenario.seed_for(alive_fraction, run);
  const WorkloadConfig& workload = scenario.workload;
  const std::size_t topic_count = scenario.topic_names.size();

  // --- Engine configuration (seeded from its own stream cell). ------------
  core::DamSystem::Config config;
  config.seed = stream_rng(seed, StreamId::kSystem, 0)();
  config.node.params = homogeneous_params(scenario);
  config.auto_wire_super_tables = workload.engine.auto_wire_super_tables;
  config.neighborhood_degree = workload.engine.neighborhood_degree;
  config.node.recovery.enabled = workload.engine.recovery_enabled;
  config.node.recovery.history_size = workload.engine.recovery_history;
  config.node.recovery.digest_size = workload.engine.recovery_digest;
  config.node.seen_gc_horizon = workload.engine.gc_horizon;
  config.threads = scenario.threads;  // spawn-batch fill workers
  core::DamSystem system(binding.hierarchy, config);

  system.set_trace_recorder(trace);

  // --- Traffic stream and failure schedule. -------------------------------
  std::size_t initial_processes = 0;
  for (std::size_t topic = 0; topic < topic_count; ++topic) {
    initial_processes += scenario.group_sizes[topic];
  }
  TrafficShape shape;
  shape.topic_count = topic_count;
  shape.publish_topic = scenario.publish_topic;
  shape.initial_processes = initial_processes;
  const EventStream stream = generate_stream(workload, shape, seed);

  const std::size_t warmup = workload.engine.warmup_rounds;
  const std::size_t horizon =
      std::max<std::size_t>(workload.arrival.horizon, 1);
  const std::size_t total_rounds =
      warmup + horizon + workload.engine.drain_rounds;
  std::size_t joins = 0;
  for (const TrafficEvent& event : stream) {
    joins += event.kind == TrafficEvent::Kind::kJoin;
  }
  // One schedule model covers stillborn coins, crash/recover outages, and
  // permanent leaves; sized for every process that can ever exist so
  // mid-run joiners stay in its domain.
  auto failures =
      std::make_unique<sim::ChurnFailures>(initial_processes + joins);
  for (std::size_t p = 0; p < initial_processes; ++p) {
    util::Rng coin = stream_rng(seed, StreamId::kStillborn, p);
    if (coin.bernoulli(1.0 - alive_fraction)) {
      failures->add_downtime(topics::ProcessId{static_cast<std::uint32_t>(p)},
                             {0, kNever});
    }
  }
  // The flight recorder's churn series comes straight off the stream: every
  // churn event lands at absolute round warmup + event.round (< total), and
  // recover rounds are clamped to the replay — NEVER feed kNever to the
  // window allocator (it would size the timeline to 2^27 windows).
  util::Timeline& timeline = system.metrics().timeline();
  for (const TrafficEvent& event : stream) {
    if (event.kind == TrafficEvent::Kind::kJoin) {
      timeline.note_join(warmup + event.round);
      continue;
    }
    if (event.kind != TrafficEvent::Kind::kCrash &&
        event.kind != TrafficEvent::Kind::kLeave) {
      continue;
    }
    const auto process =
        topics::ProcessId{static_cast<std::uint32_t>(event.actor)};
    const sim::Round down = warmup + event.round;
    const sim::Round up = event.kind == TrafficEvent::Kind::kCrash
                              ? down + std::max<std::size_t>(event.length, 1)
                              : kNever;
    if (event.kind == TrafficEvent::Kind::kCrash) {
      timeline.note_crash(down);
      if (up < total_rounds) timeline.note_recover(up);
    } else {
      timeline.note_leave(down);
    }
    failures->add_downtime(process, {down, up});
  }
  // Install the model BEFORE spawning: swapping it rebuilds the transport
  // and would drop the initial bootstrap floods spawned nodes already sent
  // (nodes would sit out a full retry timeout before linking).
  system.set_failure_model(std::move(failures));
  const sim::FailureModel& alive_model = system.failure_model();

  const auto spawn_started = std::chrono::steady_clock::now();
  for (std::size_t topic = 0; topic < topic_count; ++topic) {
    system.spawn_group(binding.topic_ids[topic], scenario.group_sizes[topic]);
  }
  const double spawn_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    spawn_started)
          .count();

  // --- Bootstrap-link measurement (cold-start lane). ----------------------
  std::vector<char> scenario_root(binding.hierarchy.size(), 0);  // by TopicId
  for (std::size_t topic = 0; topic < topic_count; ++topic) {
    scenario_root[binding.topic_ids[topic].value] =
        binding.is_scenario_root[topic];
  }
  DynamicRunResult result;
  result.measured_link = !workload.engine.auto_wire_super_tables;
  std::size_t rounds_executed = 0;
  bool link_reached = false;

  // Every publication's headline reliability is snapshotted at its delivery
  // DEADLINE — drain_rounds after the publish — not at run end, so early
  // publications are not graded on extra spreading time later ones never
  // get. The deadline is what makes multi-publication reliability curves
  // comparable across stream shapes.
  struct PublicationRecord {
    net::EventId event;
    std::uint32_t topic;       ///< scenario topic index it was published on
    std::size_t deadline;      ///< rounds_executed value to snapshot at
    double ratio = -1.0;       ///< delivery_ratio at the deadline (<0: unset)
    bool harvested = false;    ///< GC lane: outcome folded in, state retired
  };
  std::vector<PublicationRecord> published;

  // Sustained-service GC (gc_horizon > 0): each publication's group
  // outcomes and latency aggregate are harvested AT ITS DEADLINE into these
  // accumulators, then the engine retires its delivered-set / latency
  // bookkeeping, so per-run state holds only in-flight publications no
  // matter how long the horizon. Records never harvested (GC off, or a
  // deadline past the run's end) are graded at run end by the same lambda.
  const std::size_t gc_horizon = workload.engine.gc_horizon;
  std::vector<double> ratio_sums(topic_count, 0.0);
  std::vector<std::size_t> group_ratio_samples(topic_count, 0);
  std::vector<char> group_all_delivered(topic_count, 1);
  std::uint64_t deliveries = 0;
  std::uint64_t latency_sum = 0;
  // Grades one publication against the CURRENT round's liveness (the
  // deadline round when called from the harvest path, the run's end round
  // when called from run-end grading). Per-group float sums accumulate in
  // publication order either way, so both paths fold identically.
  auto grade = [&](const PublicationRecord& record) {
    const sim::Round grading_round = system.now();
    const auto& delivered = system.delivered_set(record.event);
    for (std::size_t topic = 0; topic < topic_count; ++topic) {
      const topics::TopicId id = binding.topic_ids[topic];
      const auto& members = system.registry().group(id);
      const bool interested = binding.hierarchy.includes(
          id, binding.topic_ids[record.topic]);
      if (!interested) {
        for (const topics::ProcessId member : members) {
          if (delivered.contains(member)) {
            group_all_delivered[topic] = 0;  // parasite outcome
            break;
          }
        }
        continue;
      }
      std::size_t alive_members = 0;
      std::size_t alive_delivered = 0;
      for (const topics::ProcessId member : members) {
        if (!alive_model.alive(member, grading_round)) continue;
        ++alive_members;
        alive_delivered += delivered.contains(member);
      }
      result.expected_deliveries += alive_members;
      if (alive_members == 0) continue;
      ratio_sums[topic] += static_cast<double>(alive_delivered) /
                           static_cast<double>(alive_members);
      ++group_ratio_samples[topic];
      if (alive_delivered < alive_members) group_all_delivered[topic] = 0;
    }
    const auto& latencies = system.metrics().event_latencies();
    const auto it = latencies.find(record.event);
    if (it != latencies.end()) {
      deliveries += it->second.deliveries;
      latency_sum += it->second.latency_sum;
      result.max_latency = std::max(
          result.max_latency, static_cast<double>(it->second.max_latency));
    }
  };
  auto snapshot_due = [&] {
    for (PublicationRecord& record : published) {
      if (record.ratio < 0.0 && record.deadline <= rounds_executed) {
        record.ratio = system.delivery_ratio(record.event);
        if (gc_horizon > 0) {
          // Harvest first (grade reads the delivered set and the latency
          // map), then retire both.
          grade(record);
          record.harvested = true;
          system.metrics().retire_event(record.event);
          system.retire_event(record.event);
        }
      }
    }
  };
  auto measure_link = [&] {
    if (!result.measured_link) return;
    std::size_t non_root = 0;
    std::size_t linked = 0;
    for (std::uint32_t p = 0; p < system.process_count(); ++p) {
      const core::DamNode& node = system.node(topics::ProcessId{p});
      if (scenario_root[node.topic().value]) continue;
      ++non_root;
      const auto& table = node.super_table();
      if (!table.empty() &&
          table.super_topic() == binding.hierarchy.super(node.topic())) {
        ++linked;
      }
    }
    result.linked_fraction =
        non_root == 0 ? 1.0
                      : static_cast<double>(linked) /
                            static_cast<double>(non_root);
    if (!link_reached && linked * 100 >= non_root * 95) {
      link_reached = true;
      result.rounds_to_link = static_cast<double>(rounds_executed);
      result.control_at_link =
          static_cast<double>(system.metrics().total_control_messages());
    }
  };
  // Window-boundary sampling for the flight recorder: read-only gauge
  // reads plus the transport's take-and-reset window peak — no RNG draws,
  // so recording cannot perturb the run.
  const std::size_t window_rounds = timeline.window_rounds();
  auto sample_window = [&](std::size_t last_round) {
    const core::DamSystem::BookkeepingGauges gauges =
        system.bookkeeping_gauges();
    timeline.sample_gauges(last_round, gauges.seen_bytes,
                           gauges.delivered_bytes, gauges.request_bytes);
    timeline.note_queue_peak(last_round, system.take_window_queue_peak());
  };
  auto step = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      system.run_rounds(1);
      ++rounds_executed;
      measure_link();
      snapshot_due();
      if (rounds_executed % window_rounds == 0) {
        sample_window(rounds_executed - 1);
      }
    }
  };

  // --- Replay: warmup, then the stream round by round, then drain. --------
  step(warmup);
  std::size_t next_event = 0;
  for (std::size_t round = 0; round < horizon; ++round) {
    for (; next_event < stream.size() && stream[next_event].round == round;
         ++next_event) {
      const TrafficEvent& event = stream[next_event];
      if (event.kind == TrafficEvent::Kind::kJoin) {
        system.spawn(binding.topic_ids[event.topic]);
      } else if (event.kind == TrafficEvent::Kind::kPublish) {
        const auto& group =
            system.registry().group(binding.topic_ids[event.topic]);
        if (group.empty()) continue;
        // The raw publisher draw picks a starting rank; scan forward to the
        // first member alive this round (a down publisher cannot publish).
        const std::size_t start = event.actor % group.size();
        for (std::size_t offset = 0; offset < group.size(); ++offset) {
          const topics::ProcessId candidate =
              group[(start + offset) % group.size()];
          if (alive_model.alive(candidate, system.now())) {
            const std::size_t deadline =
                rounds_executed +
                std::max<std::size_t>(workload.engine.drain_rounds, 1);
            published.push_back(
                {system.publish(candidate), event.topic, deadline});
            break;
          }
        }
      }
    }
    step(1);
  }
  step(workload.engine.drain_rounds);
  // Final partial window: the modulo sampler only fires on full windows.
  if (rounds_executed > 0 && rounds_executed % window_rounds != 0) {
    sample_window(rounds_executed - 1);
  }
  if (result.measured_link && !link_reached) {
    result.rounds_to_link = static_cast<double>(rounds_executed);
    result.control_at_link =
        static_cast<double>(system.metrics().total_control_messages());
  }

  // --- Collection. ---------------------------------------------------------
  const sim::Round end_round = system.now();
  result.rounds = rounds_executed;
  result.total_messages = system.metrics().total_event_messages();
  result.control_messages = system.metrics().total_control_messages();
  result.publications = published.size();

  double reliability_sum = 0.0;
  for (const PublicationRecord& record : published) {
    // Deadline snapshot; publications whose deadline fell past the run's
    // last round (drain cut short) are graded at run end. Harvested
    // records were graded at their deadline already.
    reliability_sum += record.ratio >= 0.0
                           ? record.ratio
                           : system.delivery_ratio(record.event);
    if (!record.harvested) grade(record);
  }
  if (!published.empty()) {
    result.event_reliability = reliability_sum /
                               static_cast<double>(published.size());
  }
  if (deliveries > 0) {
    result.mean_latency =
        static_cast<double>(latency_sum) / static_cast<double>(deliveries);
  }
  // Every delivery the Metrics sketch saw belongs to one of this run's
  // publications (Metrics::note_publish gates the sketch), so it can be
  // taken whole.
  result.latency_sketch = system.metrics().latency_sketch();
  result.timeline = system.metrics().timeline();
  result.parasite_deliveries = system.metrics().parasite_deliveries();

  result.groups.resize(topic_count);
  for (std::size_t topic = 0; topic < topic_count; ++topic) {
    DynamicGroupResult& group_result = result.groups[topic];
    const topics::TopicId id = binding.topic_ids[topic];
    const auto& members = system.registry().group(id);
    group_result.size = members.size();
    for (const topics::ProcessId member : members) {
      group_result.alive += alive_model.alive(member, end_round);
      group_result.duplicate_deliveries += system.node(member).duplicate_count();
    }
    const sim::GroupCounters& counters = system.metrics().group(id);
    group_result.intra_sent = counters.intra_sent;
    group_result.inter_sent = counters.inter_sent;
    group_result.inter_received = counters.inter_received;
    group_result.control_sent = counters.control_sent;
    group_result.ratio_samples = group_ratio_samples[topic];
    group_result.all_alive_delivered = group_all_delivered[topic] != 0;
    if (group_result.ratio_samples > 0) {
      group_result.delivery_ratio =
          ratio_sums[topic] / static_cast<double>(group_result.ratio_samples);
    }
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  result.table_build_seconds = spawn_seconds;
  // Mid-run joins spawn one at a time (owned views), so the arena total is
  // fixed once the initial groups exist — reading it at run end is exact.
  result.table_bytes = system.view_arena_bytes();
  // The transport ratchets its high-water mark on every send, so the
  // run-end read IS the peak across the whole replay.
  result.queue_bytes = system.peak_queue_bytes();
  return result;
}

}  // namespace dam::workload

#include "workload/driver.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "net/message.hpp"

namespace dam::workload {

namespace {

/// Rejects a scenario whose topology the stream engines cannot run: no
/// topics, group sizes that do not cover them, or a topic with several
/// supertopics (one super table per process, one route per group).
void check_topology(const sim::Scenario& scenario, const topics::TopicDag& dag,
                    std::string_view caller) {
  if (dag.size() == 0) {
    throw std::invalid_argument(std::string(caller) +
                                ": scenario has no topics");
  }
  if (scenario.group_sizes.size() != dag.size()) {
    throw std::invalid_argument(std::string(caller) +
                                ": group_sizes must cover every topic");
  }
  topics::require_tree(dag, caller);
}

/// DamSystem behind the replay harness, plus the cold-start lane's
/// bootstrap-link measurement and the optional trace recorder.
class DamSystemEngine final : public StreamEngine {
 public:
  DamSystemEngine(const sim::Scenario& scenario, const topics::TopicDag& dag,
                  std::uint64_t seed, sim::TraceRecorder* trace)
      : dag_(dag),
        system_(dag, config_for(scenario, seed)),
        measured_link_(!scenario.workload.engine.auto_wire_super_tables) {
    system_.set_trace_recorder(trace);
  }

  sim::Metrics& metrics() override { return system_.metrics(); }
  void set_failures(std::unique_ptr<sim::ChurnFailures> failures) override {
    system_.set_failure_model(std::move(failures));
  }
  void spawn_group(topics::TopicId topic, std::size_t count) override {
    system_.spawn_group(topic, count);
  }
  void join(topics::TopicId topic) override { system_.spawn(topic); }
  const std::vector<topics::ProcessId>& group(
      topics::TopicId topic) const override {
    return system_.registry().group(topic);
  }
  net::EventId publish(topics::ProcessId publisher,
                       topics::TopicId) override {
    return system_.publish(publisher);
  }
  void run_round() override {
    system_.run_rounds(1);
    measure_link();
  }
  DeliveredView delivered(net::EventId event) const override {
    return system_.delivered_set(event);
  }
  void retire(net::EventId event) override { system_.retire_event(event); }
  WindowSample sample_window() override {
    const core::DamSystem::BookkeepingGauges gauges =
        system_.bookkeeping_gauges();
    return {gauges.seen_bytes, gauges.request_bytes,
            system_.take_window_queue_peak()};
  }

  void collect(DynamicRunResult& result) const override {
    for (std::uint32_t topic = 0; topic < result.groups.size(); ++topic) {
      DynamicGroupResult& group_result = result.groups[topic];
      for (const topics::ProcessId member : group(topics::TopicId{topic})) {
        group_result.duplicate_deliveries +=
            system_.node(member).duplicate_count();
      }
    }
    // Mid-run joins spawn one at a time and add no batch rows, so the
    // row total is fixed once the initial groups exist — reading it at
    // run end is exact. The transport ratchets its high-water mark on every send, so
    // the run-end read IS the peak across the whole replay.
    result.table_bytes = system_.view_arena_bytes();
    result.queue_bytes = system_.peak_queue_bytes();

    result.measured_link = measured_link_;
    result.linked_fraction = linked_fraction_;
    result.rounds_to_link = rounds_to_link_;
    result.control_at_link = control_at_link_;
    if (measured_link_ && !link_reached_) {
      result.rounds_to_link = static_cast<double>(system_.now());
      result.control_at_link = control_sends();
    }
  }

 private:
  static core::DamSystem::Config config_for(const sim::Scenario& scenario,
                                            std::uint64_t seed) {
    const EngineConfig& engine = scenario.workload.engine;
    core::DamSystem::Config config;
    config.seed = seed;
    config.node.params =
        sim::homogeneous_params(scenario, "run_dynamic_simulation");
    config.auto_wire_super_tables = engine.auto_wire_super_tables;
    config.neighborhood_degree = engine.neighborhood_degree;
    config.node.recovery.enabled = engine.recovery_enabled;
    config.node.recovery.history_size = engine.recovery_history;
    config.node.recovery.digest_size = engine.recovery_digest;
    config.node.seen_gc_horizon = engine.gc_horizon;
    config.threads = scenario.threads;  // spawn-batch fill workers
    return config;
  }

  /// Bootstrap lane (no auto-wired super tables): after each round, the
  /// fraction of non-root processes whose supertopic table targets their
  /// DIRECT supertopic, and the round and control traffic at which it
  /// first reaches 95%.
  void measure_link() {
    if (!measured_link_) return;
    std::size_t non_root = 0;
    std::size_t linked = 0;
    for (std::uint32_t p = 0; p < system_.process_count(); ++p) {
      const core::DamNode& node = system_.node(topics::ProcessId{p});
      if (dag_.is_root(node.topic())) continue;
      ++non_root;
      const auto& table = node.super_table();
      if (!table.empty() && table.super_topic() == dag_.super(node.topic())) {
        ++linked;
      }
    }
    linked_fraction_ = non_root == 0 ? 1.0
                                     : static_cast<double>(linked) /
                                           static_cast<double>(non_root);
    if (!link_reached_ && linked * 100 >= non_root * 95) {
      link_reached_ = true;
      rounds_to_link_ = static_cast<double>(system_.now());
      control_at_link_ = control_sends();
    }
  }

  double control_sends() const {
    return static_cast<double>(
        system_.metrics().timeline().totals().control_sends);
  }

  const topics::TopicDag& dag_;
  core::DamSystem system_;
  bool measured_link_;
  bool link_reached_ = false;
  double rounds_to_link_ = 0.0;
  double control_at_link_ = 0.0;
  double linked_fraction_ = 0.0;
};

}  // namespace

DynamicScenarioBinding bind_scenario(const sim::Scenario& scenario) {
  DynamicScenarioBinding binding{scenario.build_dag(), {}};
  check_topology(scenario, binding.hierarchy, "bind_scenario");
  for (std::uint32_t topic = 0; topic < binding.hierarchy.size(); ++topic) {
    binding.topic_ids.push_back(topics::TopicId{topic});
  }
  return binding;
}

DynamicRunResult replay_stream(const sim::Scenario& scenario,
                               const topics::TopicDag& dag,
                               double alive_fraction, int run,
                               std::string_view caller,
                               const EngineFactory& make_engine) {
  const auto started = std::chrono::steady_clock::now();
  check_topology(scenario, dag, caller);
  const std::uint64_t seed = scenario.seed_for(alive_fraction, run);
  const WorkloadConfig& workload = scenario.workload;
  const std::size_t topic_count = dag.size();
  const std::unique_ptr<StreamEngine> engine =
      make_engine(stream_rng(seed, StreamId::kSystem, 0)());

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
  const std::size_t drain = workload.engine.drain_rounds;
  const std::size_t total_rounds = warmup + horizon + drain;
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
                             {0, sim::ChurnFailures::kNever});
    }
  }
  // The flight recorder's churn series comes straight off the stream: every
  // churn event lands at absolute round warmup + event.round (< total), and
  // recover rounds are clamped to the replay — NEVER feed kNever to the
  // window allocator (it would size the timeline to 2^27 windows).
  sim::Metrics& metrics = engine->metrics();
  util::Timeline& timeline = metrics.timeline();
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
                              : sim::ChurnFailures::kNever;
    if (event.kind == TrafficEvent::Kind::kCrash) {
      timeline.note_crash(down);
      if (up < total_rounds) timeline.note_recover(up);
    } else {
      timeline.note_leave(down);
    }
    failures->add_downtime(process, {down, up});
  }
  const sim::ChurnFailures& schedule = *failures;
  engine->set_failures(std::move(failures));

  const auto spawn_started = std::chrono::steady_clock::now();
  for (std::uint32_t topic = 0; topic < topic_count; ++topic) {
    engine->spawn_group(topics::TopicId{topic}, scenario.group_sizes[topic]);
  }
  const double spawn_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    spawn_started)
          .count();

  DynamicRunResult result;
  std::size_t rounds_executed = 0;
  std::size_t process_count = initial_processes;

  // Every publication's headline reliability is snapshotted at its delivery
  // DEADLINE — drain_rounds after the publish — not at run end, so early
  // publications are not graded on extra spreading time later ones never
  // get. The deadline is what makes multi-publication reliability curves
  // comparable across stream shapes.
  struct PublicationRecord {
    net::EventId event;        ///< the engine's id of the publication
    std::uint32_t topic;       ///< scenario topic index it was published on
    std::size_t watermark;     ///< process count at publish
    std::size_t deadline;      ///< rounds_executed value to snapshot at
    double ratio = -1.0;       ///< reliability at the deadline (<0: unset)
    bool harvested = false;    ///< GC lane: outcome folded in, state retired
  };
  std::vector<PublicationRecord> published;

  // Headline reliability of one publication at the current round: the
  // alive processes interested at publish (members of the topic's chain
  // groups below the watermark; groups only append) that delivered it.
  auto deadline_ratio = [&](const PublicationRecord& record) {
    const StreamEngine::DeliveredView delivered =
        engine->delivered(record.event);
    std::size_t alive_interested = 0;
    std::size_t alive_delivered = 0;
    for (const topics::TopicId topic :
         dag.chain_to_root(topics::TopicId{record.topic})) {
      for (const topics::ProcessId p : engine->group(topic)) {
        if (p.value >= record.watermark) break;
        if (!schedule.alive(p, rounds_executed)) continue;
        ++alive_interested;
        alive_delivered += delivered.contains(p);
      }
    }
    if (alive_interested == 0) return 1.0;
    return static_cast<double>(alive_delivered) /
           static_cast<double>(alive_interested);
  };

  // Sustained-service GC (gc_horizon > 0): each publication's group
  // outcomes and latency aggregate are harvested AT ITS DEADLINE into these
  // accumulators, then its Metrics latency record and the engine's
  // delivered set are retired, so per-run state holds only in-flight
  // publications no matter how long the horizon. Records never harvested
  // (GC off, or a deadline past the run's end) are graded at run end by
  // the same lambda.
  const std::size_t gc_horizon = workload.engine.gc_horizon;
  std::vector<double> ratio_sums(topic_count, 0.0);
  std::vector<std::size_t> group_ratio_samples(topic_count, 0);
  std::vector<char> group_all_delivered(topic_count, 1);
  std::uint64_t deliveries = 0;
  std::uint64_t latency_sum = 0;
  // Grades one publication against the CURRENT round's liveness over the
  // CURRENT members (the deadline round when called from the harvest path,
  // the run's end round when called from run-end grading). Per-group float
  // sums accumulate in publication order either way, so both paths fold
  // identically.
  auto grade = [&](const PublicationRecord& record) {
    const StreamEngine::DeliveredView delivered =
        engine->delivered(record.event);
    for (std::uint32_t topic = 0; topic < topic_count; ++topic) {
      const topics::TopicId id{topic};
      const auto& members = engine->group(id);
      const bool interested = dag.includes(id, topics::TopicId{record.topic});
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
        if (!schedule.alive(member, rounds_executed)) continue;
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
    // The record lives from publish until the harvest below retires it.
    const sim::Metrics::EventLatency& latency =
        metrics.event_latencies().at(record.event);
    deliveries += latency.deliveries;
    latency_sum += latency.latency_sum;
    result.max_latency = std::max(result.max_latency,
                                  static_cast<double>(latency.max_latency));
  };
  auto snapshot_due = [&] {
    for (PublicationRecord& record : published) {
      if (record.ratio < 0.0 && record.deadline <= rounds_executed) {
        record.ratio = deadline_ratio(record);
        if (gc_horizon > 0) {
          // Harvest first (grade reads the delivered set and the latency
          // aggregate), then retire both.
          grade(record);
          record.harvested = true;
          metrics.retire_event(record.event);
          engine->retire(record.event);
        }
      }
    }
  };
  // Window-boundary sampling for the flight recorder: read-only gauge
  // reads plus the engine's take-and-reset queue peak — no RNG draws, so
  // recording cannot perturb the run.
  const std::size_t window_rounds = timeline.window_rounds();
  auto sample_window = [&](std::size_t last_round) {
    const StreamEngine::WindowSample sample = engine->sample_window();
    timeline.sample_gauges(last_round, sample.seen_bytes,
                           /*delivered_bytes=*/0, sample.request_bytes);
    timeline.note_queue_peak(last_round, sample.queue_peak);
  };
  auto step = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      engine->run_round();
      ++rounds_executed;
      snapshot_due();
      if (rounds_executed % window_rounds == 0) {
        sample_window(rounds_executed - 1);
      }
    }
  };

  // --- Replay: warmup, then the stream round by round, then drain. --------
  // Engines that need no bootstrap still run the warmup, so deadlines,
  // windows and latency axes line up across engines.
  step(warmup);
  std::size_t next_event = 0;
  for (std::size_t round = 0; round < horizon; ++round) {
    for (; next_event < stream.size() && stream[next_event].round == round;
         ++next_event) {
      const TrafficEvent& event = stream[next_event];
      const topics::TopicId topic{event.topic};
      if (event.kind == TrafficEvent::Kind::kJoin) {
        engine->join(topic);
        ++process_count;
      } else if (event.kind == TrafficEvent::Kind::kPublish) {
        const auto& group = engine->group(topic);
        if (group.empty()) continue;
        // The raw publisher draw picks a starting rank; scan forward to the
        // first member alive this round (a down publisher cannot publish).
        const std::size_t start = event.actor % group.size();
        for (std::size_t offset = 0; offset < group.size(); ++offset) {
          const topics::ProcessId candidate =
              group[(start + offset) % group.size()];
          if (schedule.alive(candidate, rounds_executed)) {
            published.push_back({engine->publish(candidate, topic),
                                 event.topic, process_count,
                                 rounds_executed + std::max<std::size_t>(
                                                       drain, 1)});
            break;
          }
        }
      }
    }
    step(1);
  }
  step(drain);
  // Final partial window: the modulo sampler only fires on full windows.
  if (rounds_executed > 0 && rounds_executed % window_rounds != 0) {
    sample_window(rounds_executed - 1);
  }

  // --- Collection. ---------------------------------------------------------
  result.rounds = rounds_executed;
  result.publications = published.size();
  double reliability_sum = 0.0;
  for (const PublicationRecord& record : published) {
    // Deadline snapshot; publications whose deadline fell past the run's
    // last round (drain cut short) are graded at run end. Harvested
    // records were graded at their deadline already.
    reliability_sum +=
        record.ratio >= 0.0 ? record.ratio : deadline_ratio(record);
    if (!record.harvested) grade(record);
  }
  if (!published.empty()) {
    result.event_reliability =
        reliability_sum / static_cast<double>(published.size());
  }
  if (deliveries > 0) {
    result.mean_latency =
        static_cast<double>(latency_sum) / static_cast<double>(deliveries);
  }

  result.groups.resize(topic_count);
  for (std::uint32_t topic = 0; topic < topic_count; ++topic) {
    DynamicGroupResult& group_result = result.groups[topic];
    const auto& members = engine->group(topics::TopicId{topic});
    group_result.size = members.size();
    const sim::GroupCounters& counters = metrics.group(topics::TopicId{topic});
    group_result.intra_sent = counters.intra_sent;
    group_result.inter_sent = counters.inter_sent;
    group_result.inter_received = counters.inter_received;
    group_result.control_sent = counters.control_sent;
    for (const topics::ProcessId member : members) {
      group_result.alive += schedule.alive(member, rounds_executed);
    }
    group_result.ratio_samples = group_ratio_samples[topic];
    group_result.all_alive_delivered = group_all_delivered[topic] != 0;
    if (group_result.ratio_samples > 0) {
      group_result.delivery_ratio =
          ratio_sums[topic] / static_cast<double>(group_result.ratio_samples);
    }
  }
  // Every engine counts through its Metrics, so the run's counters are
  // read off it here, once: the message totals stay on the timeline, and
  // every delivery in the sketch belongs to one of this run's
  // publications (Metrics::note_publish gates it), so it is taken whole.
  result.latency_sketch = metrics.latency_sketch();
  result.parasite_deliveries = metrics.parasite_deliveries();
  engine->collect(result);
  result.timeline = timeline;

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  result.table_build_seconds = spawn_seconds;
  return result;
}

DynamicRunResult run_dynamic_simulation(const sim::Scenario& scenario,
                                        const topics::TopicDag& dag,
                                        double alive_fraction, int run,
                                        sim::TraceRecorder* trace) {
  return replay_stream(
      scenario, dag, alive_fraction, run, "run_dynamic_simulation",
      [&](std::uint64_t seed) {
        return std::make_unique<DamSystemEngine>(scenario, dag, seed, trace);
      });
}

}  // namespace dam::workload

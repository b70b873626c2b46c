#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "analysis/formulas.hpp"
#include "core/frozen_sim.hpp"
#include "core/system.hpp"
#include "exp/grid.hpp"
#include "exp/runner.hpp"
#include "sim/failure.hpp"
#include "sim/trace.hpp"
#include "workload/traffic.hpp"

namespace perfbench {

namespace {

namespace core = dam::core;
namespace exp = dam::exp;
namespace sim = dam::sim;
namespace topics = dam::topics;
namespace wl = dam::workload;

constexpr double kMiB = 1024.0 * 1024.0;

/// Same sentinel as workload/driver.cpp: a downtime that never ends.
constexpr sim::Round kNever = sim::Round{1} << 30;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Counts liveness probes from outside the engine. Both calls forward to
/// the wrapped schedule, so the transport's channel RNG stream is consumed
/// exactly as without the decorator.
class CountingFailures final : public sim::FailureModel {
 public:
  explicit CountingFailures(std::unique_ptr<sim::ChurnFailures> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] bool alive(topics::ProcessId process,
                           sim::Round round) const override {
    ++probes_;
    return inner_->alive(process, round);
  }
  [[nodiscard]] bool deliverable(topics::ProcessId from, topics::ProcessId to,
                                 sim::Round round,
                                 dam::util::Rng& rng) const override {
    ++probes_;
    return inner_->deliverable(from, to, round, rng);
  }

  [[nodiscard]] const sim::ChurnFailures& inner() const noexcept {
    return *inner_;
  }
  [[nodiscard]] std::uint64_t probes() const noexcept { return probes_; }

 private:
  std::unique_ptr<sim::ChurnFailures> inner_;
  mutable std::uint64_t probes_ = 0;
};

/// Checks shared by both paths.
void check_outputs(const Outputs& outputs, std::vector<std::string>& failures) {
  if (!(outputs.reliability >= 0.0 && outputs.reliability <= 1.0)) {
    failures.push_back("reliability outside [0, 1]");
  }
  if (outputs.publications == 0 || outputs.first_deliveries == 0) {
    failures.push_back("no publication was delivered");
  }
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "publish") return Workload::kPublish;
  if (name == "churn") return Workload::kChurn;
  if (name == "frozen") return Workload::kFrozen;
  return std::nullopt;
}

Bench::Bench(Workload workload, std::uint64_t seed) : workload_(workload) {
  // Presets and grid axes come from the program's own registry; the
  // publication pattern is then pinned so that a seed changes which
  // processes publish and every engine draw, but not how much work a run
  // does (see README.md, "Workloads").
  const char* preset = "giant-flat";
  const char* grid = "scale=10";
  if (workload == Workload::kPublish) {
    preset = "steady-state";
    grid = "scale=10 horizon=72";
  } else if (workload == Workload::kChurn) {
    preset = "steady-churn";
    grid = "scale=100 publishers=1 horizon=8 join_frac=0.005";
  }
  const sim::Scenario* found = sim::find_scenario(preset);
  if (found == nullptr) {
    throw std::runtime_error(std::string("missing preset ") + preset);
  }
  scenario_ = *found;
  for (const exp::GridPoint& point : exp::expand_grid(exp::parse_grid(grid))) {
    exp::apply_grid_point(scenario_, point);
  }
  wl::WorkloadConfig& traffic = scenario_.workload;
  if (workload == Workload::kPublish) {
    // Every publication on the bottom topic, so each one fans out to all
    // three groups; two synchronized flash crowds carry most of them.
    traffic.popularity.kind = wl::PopularityKind::kSingle;
    scenario_.publish_topic =
        static_cast<std::uint32_t>(scenario_.topic_names.size() - 1);
    traffic.steady.rate = 0.002;
    traffic.steady.burst_every = 24;
    traffic.steady.burst_size = 2;
  } else if (workload == Workload::kChurn) {
    // Four publications per round on the root group: event traffic stays a
    // small fraction of the membership exchange.
    traffic.popularity.kind = wl::PopularityKind::kSingle;
    scenario_.publish_topic = 0;
    traffic.steady.rate = 0.0;
    traffic.steady.burst_every = 1;
    traffic.steady.burst_size = 4;
  }
  scenario_.threads = 1;
  scenario_.runs = 1;
  scenario_.alive_sweep = {1.0};
  scenario_.base_seed = seed;
  dag_ = scenario_.build_dag();
  if (workload != Workload::kFrozen) {
    if (!traffic.engine.auto_wire_super_tables) {
      throw std::runtime_error("traced replay needs auto-wired super tables");
    }
    binding_ = wl::bind_scenario(scenario_);
  }
}

wl::TrafficShape Bench::shape() const {
  wl::TrafficShape shape;
  shape.topic_count = scenario_.topic_names.size();
  shape.publish_topic = scenario_.publish_topic;
  for (const std::size_t size : scenario_.group_sizes) {
    shape.initial_processes += size;
  }
  return shape;
}

RunResult Bench::run_untraced(double* sweep_overhead_s) const {
  RunResult result;
  const bool frozen = workload_ == Workload::kFrozen;
  // The sweep generates the stream inside the run without timing it on
  // its own, so the same call is timed here: it is the set-up share of the
  // run, and its topics drive the parasite check below.
  double stream_s = 0.0;
  wl::EventStream stream;
  if (!frozen) {
    const auto started = std::chrono::steady_clock::now();
    stream = wl::generate_stream(scenario_.workload, shape(), run_seed());
    stream_s = seconds_since(started);
  }

  exp::RunnerOptions options;
  options.jobs = 1;
  const exp::SweepResult sweep = exp::run_sweep(scenario_, options);
  const exp::ScenarioPoint& point = sweep.points.front();
  if (sweep_overhead_s != nullptr) {
    *sweep_overhead_s = sweep.wall_seconds - sweep.table_build_seconds -
                        sweep.dissemination_seconds;
  }

  Outputs& out = result.outputs;
  out.sent = sweep.total_events;
  out.latency_p50 = point.latency_sketch.quantile(0.5);
  out.latency_p99 = point.latency_sketch.quantile(0.99);
  out.state_bytes = sweep.peak_table_bytes + sweep.peak_queue_bytes +
                    sweep.peak_bookkeeping_bytes;
  result.setup_s = stream_s + sweep.table_build_seconds;
  result.run_s = sweep.dissemination_seconds - stream_s;

  // A group that is not interested in any publication of the run must
  // report all_alive_delivered (false there means a parasite delivery).
  std::vector<bool> interested(scenario_.topic_names.size(), false);
  if (frozen) {
    out.first_deliveries = point.latency_sketch.count();
    out.publications = 1;
    out.reliability = point.expected_deliveries == 0
                          ? 0.0
                          : static_cast<double>(out.first_deliveries) /
                                static_cast<double>(point.expected_deliveries);
    const topics::DagTopicId published{scenario_.publish_topic};
    for (std::uint32_t topic = 0; topic < dag_.size(); ++topic) {
      interested[topic] = dag_.includes(topics::DagTopicId{topic}, published);
    }
  } else {
    out.first_deliveries =
        static_cast<std::uint64_t>(point.msg_delivers.mean());
    out.control_sends =
        static_cast<std::uint64_t>(point.msg_control_sends.mean());
    out.publications = static_cast<std::uint64_t>(point.publications.mean());
    out.reliability = point.event_reliability.mean();
    for (const wl::TrafficEvent& event : stream) {
      if (event.kind != wl::TrafficEvent::Kind::kPublish) continue;
      for (std::size_t topic = 0; topic < interested.size(); ++topic) {
        interested[topic] = interested[topic] ||
                            binding_.hierarchy.includes(
                                binding_.topic_ids[topic],
                                binding_.topic_ids[event.topic]);
      }
    }
  }
  for (std::size_t topic = 0; topic < interested.size(); ++topic) {
    const auto& outcome = point.groups[topic].all_alive_delivered;
    if (!interested[topic] && outcome.successes != outcome.trials) {
      result.failures.push_back("parasite delivery in group " +
                                scenario_.topic_names[topic]);
    }
  }
  check_outputs(out, result.failures);
  return result;
}

RunResult Bench::run_traced(Tracer& tracer) const {
  return workload_ == Workload::kFrozen ? traced_frozen(tracer)
                                        : traced_dynamic(tracer);
}

// Mirrors workload::run_dynamic_simulation call for call: the same engine
// configuration, stream, failure schedule, round loop, publisher choice,
// deadline grading with retirement, and window sampling. Only the spans,
// the probe-counting failure model, and the counter reads are added.
RunResult Bench::traced_dynamic(Tracer& tracer) const {
  RunResult result;
  std::map<std::string, double>& layers = result.layers;
  std::size_t op = 0;
  double receptions = 0.0;
  {
    const Tracer::Scope op_scope(tracer, "op");
    op = op_scope.index();
    const std::uint64_t seed = run_seed();
    const double alive_fraction = scenario_.alive_sweep.front();
    const wl::WorkloadConfig& traffic = scenario_.workload;
    const std::size_t topic_count = scenario_.topic_names.size();

    core::DamSystem::Config config;
    config.seed = wl::stream_rng(seed, wl::StreamId::kSystem, 0)();
    config.node.params = scenario_.params.empty() ? core::TopicParams{}
                                                  : scenario_.params.front();
    config.auto_wire_super_tables = traffic.engine.auto_wire_super_tables;
    config.neighborhood_degree = traffic.engine.neighborhood_degree;
    config.node.recovery.enabled = traffic.engine.recovery_enabled;
    config.node.recovery.history_size = traffic.engine.recovery_history;
    config.node.recovery.digest_size = traffic.engine.recovery_digest;
    config.node.seen_gc_horizon = traffic.engine.gc_horizon;
    config.threads = scenario_.threads;
    core::DamSystem system(binding_.hierarchy, config);
    sim::TraceRecorder counts(0);
    system.set_trace_recorder(&counts);

    const wl::TrafficShape traffic_shape = shape();
    wl::EventStream stream;
    {
      const Tracer::Scope span(tracer, "workload.generate_stream");
      stream = wl::generate_stream(traffic, traffic_shape, seed);
    }
    const std::size_t warmup = traffic.engine.warmup_rounds;
    const std::size_t horizon =
        std::max<std::size_t>(traffic.arrival.horizon, 1);
    const std::size_t drain = traffic.engine.drain_rounds;
    const std::size_t total_rounds = warmup + horizon + drain;
    std::size_t joins = 0;
    for (const wl::TrafficEvent& event : stream) {
      joins += event.kind == wl::TrafficEvent::Kind::kJoin;
    }
    auto schedule = std::make_unique<sim::ChurnFailures>(
        traffic_shape.initial_processes + joins);
    for (std::size_t p = 0; p < traffic_shape.initial_processes; ++p) {
      dam::util::Rng coin = wl::stream_rng(seed, wl::StreamId::kStillborn, p);
      if (coin.bernoulli(1.0 - alive_fraction)) {
        schedule->add_downtime(
            topics::ProcessId{static_cast<std::uint32_t>(p)}, {0, kNever});
      }
    }
    dam::util::Timeline& timeline = system.metrics().timeline();
    for (const wl::TrafficEvent& event : stream) {
      if (event.kind == wl::TrafficEvent::Kind::kJoin) {
        timeline.note_join(warmup + event.round);
        continue;
      }
      if (event.kind != wl::TrafficEvent::Kind::kCrash &&
          event.kind != wl::TrafficEvent::Kind::kLeave) {
        continue;
      }
      const sim::Round down = warmup + event.round;
      const bool crash = event.kind == wl::TrafficEvent::Kind::kCrash;
      const sim::Round up =
          crash ? down + std::max<std::size_t>(event.length, 1) : kNever;
      if (crash) {
        timeline.note_crash(down);
        if (up < total_rounds) timeline.note_recover(up);
      } else {
        timeline.note_leave(down);
      }
      schedule->add_downtime(
          topics::ProcessId{static_cast<std::uint32_t>(event.actor)},
          {down, up});
    }
    auto counting = std::make_unique<CountingFailures>(std::move(schedule));
    const CountingFailures& probes = *counting;
    // run_dynamic_simulation grades against the schedule it installed;
    // grading here reads it directly so only engine probes are counted.
    const sim::ChurnFailures& alive_model = probes.inner();
    system.set_failure_model(std::move(counting));

    {
      const Tracer::Scope span(tracer, "core.spawn_group");
      for (std::size_t topic = 0; topic < topic_count; ++topic) {
        system.spawn_group(binding_.topic_ids[topic],
                           scenario_.group_sizes[topic]);
      }
    }

    struct PublicationRecord {
      dam::net::EventId event;
      std::uint32_t topic;
      std::size_t deadline;
      double ratio = -1.0;
      bool harvested = false;
    };
    std::vector<PublicationRecord> published;
    const std::size_t gc_horizon = traffic.engine.gc_horizon;
    std::vector<double> ratio_sums(topic_count, 0.0);
    std::vector<std::size_t> ratio_samples(topic_count, 0);
    std::size_t parasite_groups = 0;
    std::uint64_t grading_probes = 0;
    std::size_t rounds_executed = 0;
    std::uint64_t seen_peak = 0;
    std::uint64_t delivered_peak = 0;

    // One publication against the current round's liveness, as
    // run_dynamic_simulation's grade() does, counting uninterested groups
    // that delivered.
    auto grade = [&](const PublicationRecord& record, sim::Round round) {
      const auto& delivered = system.delivered_set(record.event);
      for (std::size_t topic = 0; topic < topic_count; ++topic) {
        const topics::TopicId id = binding_.topic_ids[topic];
        const auto& members = system.registry().group(id);
        if (!binding_.hierarchy.includes(id,
                                         binding_.topic_ids[record.topic])) {
          for (const topics::ProcessId member : members) {
            if (delivered.contains(member)) {
              ++parasite_groups;
              break;
            }
          }
          continue;
        }
        std::size_t alive_members = 0;
        std::size_t alive_delivered = 0;
        for (const topics::ProcessId member : members) {
          if (!alive_model.alive(member, round)) continue;
          ++alive_members;
          alive_delivered += delivered.contains(member);
        }
        if (alive_members == 0) continue;
        ratio_sums[topic] += static_cast<double>(alive_delivered) /
                             static_cast<double>(alive_members);
        ++ratio_samples[topic];
      }
    };
    auto snapshot_due = [&] {
      bool due = false;
      for (const PublicationRecord& record : published) {
        due = due || (record.ratio < 0.0 && record.deadline <= rounds_executed);
      }
      if (!due) return;
      const Tracer::Scope span(tracer, "workload.grade");
      const std::uint64_t before = probes.probes();
      for (PublicationRecord& record : published) {
        if (record.ratio < 0.0 && record.deadline <= rounds_executed) {
          record.ratio = system.delivery_ratio(record.event);
          if (gc_horizon > 0) {
            grade(record, system.now());
            record.harvested = true;
            system.metrics().retire_event(record.event);
            system.retire_event(record.event);
          }
        }
      }
      grading_probes += probes.probes() - before;
    };
    const std::size_t window_rounds = timeline.window_rounds();
    auto sample_window = [&](std::size_t last_round) {
      const Tracer::Scope span(tracer, "workload.gauge_sample");
      const core::DamSystem::BookkeepingGauges gauges =
          system.bookkeeping_gauges();
      timeline.sample_gauges(last_round, gauges.seen_bytes,
                             gauges.delivered_bytes, gauges.request_bytes);
      timeline.note_queue_peak(last_round, system.take_window_queue_peak());
      seen_peak = std::max<std::uint64_t>(seen_peak, gauges.seen_bytes);
      delivered_peak =
          std::max<std::uint64_t>(delivered_peak, gauges.delivered_bytes);
    };
    auto step = [&](std::size_t count) {
      for (std::size_t i = 0; i < count; ++i) {
        {
          const Tracer::Scope span(tracer, "core.run_rounds");
          system.run_rounds(1);
        }
        ++rounds_executed;
        snapshot_due();
        if (rounds_executed % window_rounds == 0) {
          sample_window(rounds_executed - 1);
        }
      }
    };

    step(warmup);
    std::size_t next_event = 0;
    for (std::size_t round = 0; round < horizon; ++round) {
      for (; next_event < stream.size() && stream[next_event].round == round;
           ++next_event) {
        const wl::TrafficEvent& event = stream[next_event];
        if (event.kind == wl::TrafficEvent::Kind::kJoin) {
          const Tracer::Scope span(tracer, "core.join");
          system.spawn(binding_.topic_ids[event.topic]);
        } else if (event.kind == wl::TrafficEvent::Kind::kPublish) {
          const auto& group =
              system.registry().group(binding_.topic_ids[event.topic]);
          if (group.empty()) continue;
          const std::size_t start = event.actor % group.size();
          for (std::size_t offset = 0; offset < group.size(); ++offset) {
            const topics::ProcessId candidate =
                group[(start + offset) % group.size()];
            if (alive_model.alive(candidate, system.now())) {
              const std::size_t deadline =
                  rounds_executed + std::max<std::size_t>(drain, 1);
              const Tracer::Scope span(tracer, "core.publish");
              published.push_back(
                  {system.publish(candidate), event.topic, deadline});
              break;
            }
          }
        }
      }
      step(1);
    }
    step(drain);
    if (rounds_executed > 0 && rounds_executed % window_rounds != 0) {
      sample_window(rounds_executed - 1);
    }

    double reliability_sum = 0.0;
    {
      const Tracer::Scope span(tracer, "workload.grade");
      const std::uint64_t before = probes.probes();
      for (const PublicationRecord& record : published) {
        reliability_sum += record.ratio >= 0.0
                               ? record.ratio
                               : system.delivery_ratio(record.event);
      }
      for (const PublicationRecord& record : published) {
        if (!record.harvested) grade(record, system.now());
      }
      grading_probes += probes.probes() - before;
    }

    const dam::net::Transport::Stats& net = system.transport().stats();
    Outputs& out = result.outputs;
    out.sent = net.sent;
    out.first_deliveries = counts.total(sim::TraceKind::kDeliver);
    out.control_sends = counts.total(sim::TraceKind::kControlSend);
    out.publications = published.size();
    out.reliability =
        published.empty()
            ? 0.0
            : reliability_sum / static_cast<double>(published.size());
    out.latency_p50 = system.metrics().latency_sketch().quantile(0.5);
    out.latency_p99 = system.metrics().latency_sketch().quantile(0.99);
    out.state_bytes = system.view_arena_bytes() + system.peak_queue_bytes() +
                      system.metrics().timeline().peak_bookkeeping_bytes();

    if (parasite_groups > 0 || system.metrics().parasite_deliveries() > 0) {
      result.failures.push_back("parasite delivery");
    }
    if (system.redeliveries() != 0) {
      result.failures.push_back("live redelivery");
    }
    if (net.sent != net.delivered + net.lost_channel + net.lost_failure +
                        system.transport().queued_records()) {
      result.failures.push_back("transport conservation broken");
    }
    check_outputs(out, result.failures);

    std::uint64_t duplicates = 0;
    std::uint64_t entries = 0;
    std::uint64_t entries_max = 0;
    for (std::uint32_t p = 0; p < system.process_count(); ++p) {
      const core::DamNode& node = system.node(topics::ProcessId{p});
      duplicates += node.duplicate_count();
      entries += node.memory_footprint();
      entries_max = std::max<std::uint64_t>(entries_max, node.memory_footprint());
    }
    const std::size_t largest = *std::max_element(
        scenario_.group_sizes.begin(), scenario_.group_sizes.end());
    const auto count = [](auto value) { return static_cast<double>(value); };
    const std::uint64_t engine_probes = probes.probes() - grading_probes;
    layers["workload.publications"] = count(published.size());
    layers["core.view_arena_mib"] = count(system.view_arena_bytes()) / kMiB;
    layers["core.first_deliveries"] = count(out.first_deliveries);
    layers["core.duplicates"] = count(duplicates);
    layers["core.dedup_useful_ratio"] =
        count(out.first_deliveries) / count(out.first_deliveries + duplicates);
    layers["core.seen_mib_peak"] = count(seen_peak) / kMiB;
    layers["core.delivered_mib_peak"] = count(delivered_peak) / kMiB;
    layers["net.sent"] = count(net.sent);
    layers["net.event_sends"] = count(net.sent - out.control_sends);
    layers["net.delivered"] = count(net.delivered);
    layers["net.lost_channel"] = count(net.lost_channel);
    layers["net.lost_failure"] = count(net.lost_failure);
    layers["net.bytes_sent"] = count(net.bytes_sent);
    layers["net.peak_queue_mib"] = count(net.peak_queue_bytes) / kMiB;
    layers["net.peak_queue_records"] = count(net.peak_queue_records);
    layers["membership.control_sends"] = count(out.control_sends);
    layers["membership.view_entries_mean"] =
        count(entries) / count(system.process_count());
    layers["membership.view_entries_max"] = count(entries_max);
    layers["membership.view_bound"] = dam::analysis::dam_memory(
        largest, config.node.params.c, config.node.params.z);
    layers["sim.alive_probes"] = count(engine_probes);
    layers["sim.probes_per_reception"] =
        net.delivered == 0 ? 0.0 : count(engine_probes) / count(net.delivered);
    receptions = count(net.delivered);
  }

  const double stream_s = tracer.total("workload.generate_stream", op);
  const double spawn_s = tracer.total("core.spawn_group", op);
  const double rounds_s = tracer.total("core.run_rounds", op);
  result.setup_s = stream_s + spawn_s;
  result.run_s = tracer.duration(op) - result.setup_s;
  layers["workload.stream_gen_s"] = stream_s;
  layers["workload.grade_s"] = tracer.total("workload.grade", op);
  layers["workload.gauge_sample_s"] = tracer.total("workload.gauge_sample", op);
  layers["core.spawn_s"] = spawn_s;
  layers["core.join_s"] = tracer.total("core.join", op);
  layers["core.rounds_s"] = rounds_s;
  layers["core.publish_s"] = tracer.total("core.publish", op);
  layers["core.ns_per_reception"] =
      receptions == 0.0 ? 0.0 : rounds_s * 1e9 / receptions;
  return result;
}

// The wave loop has no public entry of its own: the traced run times
// build_frozen_tables from here and takes the wave share of
// run_frozen_simulation from the engine's own split.
RunResult Bench::traced_frozen(Tracer& tracer) const {
  RunResult result;
  std::map<std::string, double>& layers = result.layers;
  std::size_t op = 0;
  {
    const Tracer::Scope op_scope(tracer, "op");
    op = op_scope.index();
    const core::FrozenSimConfig config =
        scenario_.config_for(dag_, scenario_.alive_sweep.front(), 0);
    std::size_t table_bytes = 0;
    {
      const Tracer::Scope span(tracer, "frozen.build_frozen_tables");
      dam::util::Rng rng(config.seed);
      table_bytes = core::build_frozen_tables(config, rng).arena_bytes();
    }
    core::FrozenRunResult run;
    {
      const Tracer::Scope span(tracer, "frozen.run_frozen_simulation");
      run = core::run_frozen_simulation(config);
    }

    Outputs& out = result.outputs;
    out.sent = run.total_messages;
    out.first_deliveries = run.latency_sketch.count();
    out.publications = 1;
    out.reliability = run.expected_deliveries == 0
                          ? 0.0
                          : static_cast<double>(out.first_deliveries) /
                                static_cast<double>(run.expected_deliveries);
    out.latency_p50 = run.latency_sketch.quantile(0.5);
    out.latency_p99 = run.latency_sketch.quantile(0.99);
    out.state_bytes = run.table_bytes + run.timeline.peak_bookkeeping_bytes();
    result.run_s = run.dissemination_seconds;

    std::uint64_t duplicates = 0;
    const topics::DagTopicId published{scenario_.publish_topic};
    for (std::uint32_t topic = 0; topic < run.groups.size(); ++topic) {
      duplicates += run.groups[topic].duplicate_deliveries;
      if (!dag_.includes(topics::DagTopicId{topic}, published) &&
          run.groups[topic].delivered > 0) {
        result.failures.push_back("parasite delivery in group " +
                                  scenario_.topic_names[topic]);
      }
    }
    if (table_bytes != run.table_bytes) {
      result.failures.push_back("traced table build differs from the run's");
    }
    check_outputs(out, result.failures);
    layers["frozen.table_mib"] = static_cast<double>(table_bytes) / kMiB;
    layers["frozen.messages"] = static_cast<double>(run.total_messages);
    layers["frozen.duplicates"] = static_cast<double>(duplicates);
    layers["frozen.wave_s"] = run.dissemination_seconds;
    layers["frozen.ns_per_message"] =
        run.total_messages == 0 ? 0.0
                                : run.dissemination_seconds * 1e9 /
                                      static_cast<double>(run.total_messages);
  }
  result.setup_s = tracer.total("frozen.build_frozen_tables", op);
  layers["frozen.table_build_s"] = result.setup_s;
  return result;
}

}  // namespace perfbench

#include "baselines/steady.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/protocol.hpp"
#include "sim/failure.hpp"
#include "util/rng.hpp"
#include "workload/traffic.hpp"

namespace dam::baselines {

namespace {

/// "Never recovers" sentinel for leave/stillborn downtime intervals
/// (driver.cpp's constant: far past any horizon, inside Round's range).
constexpr sim::Round kNever = sim::Round{1} << 30;

/// Arity of the Scribe-style per-group dissemination trees. Eight keeps an
/// interior node's branching close to the epidemic fanout ln(S)+c at the
/// preset group sizes, so the head-to-head compares redundancy strategy
/// rather than raw branching factor.
constexpr std::size_t kTreeArity = 8;

/// Tree-maintenance cadence: one heartbeat per tree edge (member -> tree
/// parent) every this many rounds — the tree baseline's control plane. The
/// flat gossip baseline pays one membership-gossip message per process on
/// the same cadence.
constexpr std::size_t kMaintenancePeriod = 4;

/// One queued dissemination hop; messages sent in round r arrive in r+1,
/// matching the transport's one-round links.
struct Hop {
  std::uint32_t event;  ///< index into the run's event table
  std::uint32_t to;
  std::uint8_t phase;   ///< tree: 0 up toward group root, 1 down the tree,
                        ///< 2 cross to the parent group's root
};

}  // namespace

workload::DynamicRunResult run_steady_baseline(const sim::Scenario& scenario,
                                               double alive_fraction,
                                               int run) {
  const auto started = std::chrono::steady_clock::now();
  const bool tree = scenario.engine == sim::EngineKind::kBaselineTree;
  if (!tree && scenario.engine != sim::EngineKind::kBaselineGossip) {
    throw std::invalid_argument("run_steady_baseline: scenario '" +
                                scenario.name +
                                "' does not select a baseline engine");
  }
  const std::size_t topic_count = scenario.topic_names.size();
  if (topic_count == 0) {
    throw std::invalid_argument("run_steady_baseline: scenario has no topics");
  }
  if (scenario.group_sizes.size() != topic_count) {
    throw std::invalid_argument(
        "run_steady_baseline: group_sizes must cover every topic");
  }

  // Tree topology only — the steady baselines exist to rival the dynamic
  // engine, which runs trees (the same shared check).
  const topics::TopicDag dag = scenario.build_dag();
  topics::require_tree(dag, "run_steady_baseline");
  // interest[g * topic_count + t] != 0 iff group g delivers publications on
  // topic t — g is an ancestor-or-self of t (hierarchy containment).
  std::vector<char> interest(topic_count * topic_count, 0);
  for (std::uint32_t g = 0; g < topic_count; ++g) {
    for (std::uint32_t topic = 0; topic < topic_count; ++topic) {
      interest[std::size_t{g} * topic_count + topic] =
          dag.includes(topics::TopicId{g}, topics::TopicId{topic});
    }
  }

  const core::TopicParams& params =
      sim::homogeneous_params(scenario, "run_steady_baseline");
  const double psucc = params.psucc;
  const workload::WorkloadConfig& wl = scenario.workload;
  const std::size_t gc_horizon = wl.engine.gc_horizon;
  const std::uint64_t seed = scenario.seed_for(alive_fraction, run);

  // --- The SAME stream and failure schedule as the dynamic engine. --------
  std::size_t initial_processes = 0;
  for (std::size_t topic = 0; topic < topic_count; ++topic) {
    initial_processes += scenario.group_sizes[topic];
  }
  workload::TrafficShape shape;
  shape.topic_count = topic_count;
  shape.publish_topic = scenario.publish_topic;
  shape.initial_processes = initial_processes;
  const workload::EventStream stream =
      workload::generate_stream(wl, shape, seed);

  const std::size_t warmup = wl.engine.warmup_rounds;
  const std::size_t horizon = std::max<std::size_t>(wl.arrival.horizon, 1);
  const std::size_t drain = wl.engine.drain_rounds;
  const std::size_t total_rounds = warmup + horizon + drain;
  std::size_t joins = 0;
  for (const workload::TrafficEvent& event : stream) {
    joins += event.kind == workload::TrafficEvent::Kind::kJoin;
  }

  sim::ChurnFailures failures(initial_processes + joins);
  for (std::size_t p = 0; p < initial_processes; ++p) {
    util::Rng coin =
        workload::stream_rng(seed, workload::StreamId::kStillborn, p);
    if (coin.bernoulli(1.0 - alive_fraction)) {
      failures.add_downtime(topics::ProcessId{static_cast<std::uint32_t>(p)},
                            {0, kNever});
    }
  }
  workload::DynamicRunResult result;
  util::Timeline& timeline = result.timeline;
  for (const workload::TrafficEvent& event : stream) {
    if (event.kind == workload::TrafficEvent::Kind::kJoin) {
      timeline.note_join(warmup + event.round);
      continue;
    }
    if (event.kind != workload::TrafficEvent::Kind::kCrash &&
        event.kind != workload::TrafficEvent::Kind::kLeave) {
      continue;
    }
    const auto process =
        topics::ProcessId{static_cast<std::uint32_t>(event.actor)};
    const sim::Round down = warmup + event.round;
    const sim::Round up = event.kind == workload::TrafficEvent::Kind::kCrash
                              ? down + std::max<std::size_t>(event.length, 1)
                              : kNever;
    if (event.kind == workload::TrafficEvent::Kind::kCrash) {
      timeline.note_crash(down);
      if (up < total_rounds) timeline.note_recover(up);
    } else {
      timeline.note_leave(down);
    }
    failures.add_downtime(process, {down, up});
  }

  // Membership: the same block layout the dynamic engine spawns (group by
  // group, joiners appended in stream order), so process ids line up with
  // the stillborn stream indices and the churn trace's actor ids.
  std::vector<std::uint32_t> topic_of;
  std::vector<std::uint32_t> slot_of;  ///< member rank inside its group
  topic_of.reserve(initial_processes + joins);
  slot_of.reserve(initial_processes + joins);
  std::vector<std::vector<std::uint32_t>> members(topic_count);
  for (std::uint32_t topic = 0; topic < topic_count; ++topic) {
    members[topic].reserve(scenario.group_sizes[topic]);
    for (std::size_t i = 0; i < scenario.group_sizes[topic]; ++i) {
      slot_of.push_back(static_cast<std::uint32_t>(members[topic].size()));
      members[topic].push_back(static_cast<std::uint32_t>(topic_of.size()));
      topic_of.push_back(topic);
    }
  }

  // One serial coin stream for the whole run, seeded from the same stream
  // cell the dynamic engine hands DamSystem — runs are pure functions of
  // (scenario, alive, run) and trivially --threads-independent.
  util::Rng rng(workload::stream_rng(seed, workload::StreamId::kSystem, 0)());

  // --- Run state. ----------------------------------------------------------
  struct EventState {
    std::uint32_t topic = 0;
    std::uint64_t publish_round = 0;  ///< absolute round
    std::uint64_t deliveries = 0;     ///< interested first receptions
    std::uint64_t latency_sum = 0;
    std::uint64_t max_latency = 0;
    bool retired = false;  ///< deadline harvested; late hops are dropped
    std::unordered_set<std::uint32_t> delivered;  ///< every first reception
  };
  std::vector<EventState> events;

  struct PublicationRecord {
    std::uint32_t event = 0;
    std::uint32_t topic = 0;
    std::size_t deadline = 0;  ///< rounds-executed value to snapshot at
    double ratio = -1.0;       ///< deadline reliability (<0: unset)
    bool harvested = false;
    /// Per-topic member count at publish time — the interested snapshot
    /// (later joiners are excluded from this publication's denominator,
    /// like DamSystem's publish-time interested set).
    std::vector<std::uint32_t> snapshot;
  };
  std::vector<PublicationRecord> published;

  std::vector<std::uint64_t> intra_sent(topic_count, 0);
  std::vector<std::uint64_t> inter_sent(topic_count, 0);
  std::vector<std::uint64_t> inter_received(topic_count, 0);
  std::vector<std::uint64_t> control_sent(topic_count, 0);
  std::vector<std::uint64_t> duplicates(topic_count, 0);

  // Grading accumulators (driver.cpp's layout: both the harvest-at-deadline
  // path and run-end grading fold into the same per-topic sums).
  std::vector<double> ratio_sums(topic_count, 0.0);
  std::vector<std::size_t> group_ratio_samples(topic_count, 0);
  std::vector<char> group_all_delivered(topic_count, 1);
  std::uint64_t deliveries_total = 0;
  std::uint64_t latency_sum_total = 0;

  auto alive = [&failures](std::uint32_t process, std::size_t round) {
    return failures.alive(topics::ProcessId{process},
                          static_cast<sim::Round>(round));
  };

  // --- Message plumbing. ---------------------------------------------------
  std::vector<Hop> current;
  std::vector<Hop> next;
  std::size_t queue_peak = 0;
  std::size_t window_queue_peak = 0;

  auto send = [&](std::uint32_t event, std::uint32_t from, std::uint32_t to,
                  std::uint8_t phase, bool inter, std::size_t round) {
    next.push_back(Hop{event, to, phase});
    if (inter) {
      ++inter_sent[topic_of[from]];
      ++inter_received[topic_of[to]];
      timeline.note_inter_send(round);
    } else {
      ++intra_sent[topic_of[from]];
      timeline.note_event_send(round);
    }
  };

  // First-reception bookkeeping shared by both engines. Returns true iff
  // this was `q`'s first reception (callers forward only then). Latency,
  // the sketch, and the timeline count INTERESTED receptions only, so
  // latency percentiles stay comparable with the protocol lane; the
  // gossip engine's parasite receptions still land in the delivered set
  // (-> all_alive_delivered = false for uninterested groups) and in
  // parasite_deliveries.
  auto receive = [&](std::uint32_t event, std::uint32_t q,
                     std::size_t round) -> bool {
    EventState& state = events[event];
    if (state.retired) return false;  // late hop past the deadline harvest
    // The delivered set is the duplicate filter too: it is only cleared at
    // retirement, after which hops are dropped above.
    if (!state.delivered.insert(q).second) {
      ++duplicates[topic_of[q]];
      return false;
    }
    if (interest[std::size_t{topic_of[q]} * topic_count + state.topic] == 0) {
      ++result.parasite_deliveries;
      return true;
    }
    const std::uint64_t latency = round - state.publish_round;
    ++state.deliveries;
    state.latency_sum += latency;
    state.max_latency = std::max(state.max_latency, latency);
    result.latency_sketch.add(static_cast<double>(latency));
    timeline.note_delivery(round, static_cast<double>(latency));
    return true;
  };

  // Tree edges over the heap layout: slot s's tree parent is (s-1)/arity,
  // its children are arity*s + 1 .. arity*s + arity (join order == slot).
  auto down_spread = [&](std::uint32_t event, std::uint32_t q,
                         std::size_t round) {
    const std::uint32_t group = topic_of[q];
    const std::vector<std::uint32_t>& roster = members[group];
    const std::size_t slot = slot_of[q];
    const std::size_t first_child = kTreeArity * slot + 1;
    const std::size_t end =
        std::min(first_child + kTreeArity, roster.size());
    for (std::size_t child = first_child; child < end; ++child) {
      send(event, q, roster[child], 1, false, round);
    }
  };
  // Group-root actions: spread down this group's tree and hop to the
  // parent group's root — events flow from the published group's root up
  // the hierarchy, one root-to-root hop per ancestor level.
  auto root_actions = [&](std::uint32_t event, std::uint32_t root,
                          std::size_t round) {
    down_spread(event, root, round);
    const topics::TopicId group{topic_of[root]};
    if (dag.is_root(group)) return;
    const auto& parent_members = members[dag.super(group).value];
    if (!parent_members.empty()) {
      send(event, root, parent_members[0], 2, true, round);
    }
  };
  auto on_tree_hop = [&](const Hop& hop, std::size_t round) {
    const bool first = receive(hop.event, hop.to, round);
    if (events[hop.event].retired) return;
    const std::size_t slot = slot_of[hop.to];
    if (hop.phase == 0 && slot != 0) {
      // Up leg: relay toward the group root. First reception only — a
      // duplicate here means the chain already carried the event up.
      if (first) {
        send(hop.event, hop.to,
             members[topic_of[hop.to]][(slot - 1) / kTreeArity], 0, false,
             round);
      }
      return;
    }
    if (slot == 0) {
      // The group root, reached by the up leg or a cross hop.
      if (first) root_actions(hop.event, hop.to, round);
      return;
    }
    // Down leg: forward to tree children UNCONDITIONALLY — nodes on the
    // publisher's up chain have already delivered, but their subtrees
    // still need the spread. Down hops strictly increase the slot, so
    // this terminates without a dedup check.
    down_spread(hop.event, hop.to, round);
  };

  // Interest-agnostic flat gossip: fanout(N) = ceil(ln N + c) uniform
  // targets over the WHOLE population, with replacement, infect-and-die.
  auto gossip_forward = [&](std::uint32_t event, std::uint32_t from,
                            std::size_t round) {
    const std::size_t population = topic_of.size();
    const std::size_t fanout = params.fanout(population);
    for (std::size_t i = 0; i < fanout; ++i) {
      const auto target = static_cast<std::uint32_t>(rng.below(population));
      send(event, from, target, 1, false, round);
    }
  };

  auto process_hop = [&](const Hop& hop, std::size_t round) {
    // Same two gates as the transport: the per-message channel coin
    // (best-effort links) and target liveness.
    if (!core::protocol::channel_delivers(psucc, rng)) return;
    if (!alive(hop.to, round)) return;
    if (tree) {
      on_tree_hop(hop, round);
    } else if (receive(hop.event, hop.to, round)) {
      gossip_forward(hop.event, hop.to, round);
    }
  };

  // --- Grading (the driver's deadline-snapshot semantics). -----------------
  // Headline reliability: alive members of interested groups, restricted to
  // the publish-time snapshot (later joiners excluded), graded at `round`.
  auto deadline_ratio = [&](const PublicationRecord& record,
                            std::size_t round) {
    const EventState& state = events[record.event];
    std::size_t alive_interested = 0;
    std::size_t delivered_count = 0;
    for (std::uint32_t group = 0; group < topic_count; ++group) {
      if (interest[std::size_t{group} * topic_count + record.topic] == 0) {
        continue;
      }
      const std::vector<std::uint32_t>& roster = members[group];
      const std::size_t limit =
          std::min<std::size_t>(record.snapshot[group], roster.size());
      for (std::size_t i = 0; i < limit; ++i) {
        if (!alive(roster[i], round)) continue;
        ++alive_interested;
        delivered_count += state.delivered.contains(roster[i]);
      }
    }
    return alive_interested == 0
               ? 1.0
               : static_cast<double>(delivered_count) /
                     static_cast<double>(alive_interested);
  };
  // Group outcomes + latency aggregate for one publication, graded against
  // `round`'s liveness over CURRENT members (the driver's rule).
  auto grade = [&](const PublicationRecord& record, std::size_t round) {
    const EventState& state = events[record.event];
    for (std::uint32_t group = 0; group < topic_count; ++group) {
      const bool interested =
          interest[std::size_t{group} * topic_count + record.topic] != 0;
      if (!interested) {
        for (const std::uint32_t member : members[group]) {
          if (state.delivered.contains(member)) {
            group_all_delivered[group] = 0;  // parasite outcome
            break;
          }
        }
        continue;
      }
      std::size_t alive_members = 0;
      std::size_t alive_delivered = 0;
      for (const std::uint32_t member : members[group]) {
        if (!alive(member, round)) continue;
        ++alive_members;
        alive_delivered += state.delivered.contains(member);
      }
      result.expected_deliveries += alive_members;
      if (alive_members == 0) continue;
      ratio_sums[group] += static_cast<double>(alive_delivered) /
                           static_cast<double>(alive_members);
      ++group_ratio_samples[group];
      if (alive_delivered < alive_members) group_all_delivered[group] = 0;
    }
    deliveries_total += state.deliveries;
    latency_sum_total += state.latency_sum;
    result.max_latency = std::max(result.max_latency,
                                  static_cast<double>(state.max_latency));
  };

  std::size_t rounds_executed = 0;
  auto snapshot_due = [&] {
    for (PublicationRecord& record : published) {
      if (record.ratio < 0.0 && record.deadline <= rounds_executed) {
        record.ratio = deadline_ratio(record, rounds_executed);
        if (gc_horizon > 0) {
          // Harvest first (grade reads the delivered set), then retire:
          // the delivered set is released and late hops are dropped.
          grade(record, rounds_executed);
          record.harvested = true;
          EventState& state = events[record.event];
          state.retired = true;
          state.delivered = {};
        }
      }
    }
  };

  const std::size_t window_rounds = timeline.window_rounds();
  auto sample_window = [&](std::size_t last_round) {
    std::uint64_t delivered_bytes = 0;
    for (const EventState& state : events) {
      if (!state.retired) {
        delivered_bytes += state.delivered.size() * sizeof(std::uint32_t);
      }
    }
    timeline.sample_gauges(last_round, 0, delivered_bytes, 0);
    timeline.note_queue_peak(last_round, window_queue_peak);
    window_queue_peak = 0;
  };

  auto run_round = [&] {
    const std::size_t round = rounds_executed;  // absolute round index
    std::swap(current, next);
    next.clear();
    for (const Hop& hop : current) process_hop(hop, round);
    if (round % kMaintenancePeriod == 0) {
      // Control plane: tree heartbeats member -> tree parent (roots have
      // none); the flat gossip group pays one membership gossip each.
      for (std::uint32_t p = 0; p < topic_of.size(); ++p) {
        if (tree && slot_of[p] == 0) continue;
        if (!alive(p, round)) continue;
        ++control_sent[topic_of[p]];
        timeline.note_control_send(round);
      }
    }
    const std::size_t queue_bytes = next.size() * sizeof(Hop);
    queue_peak = std::max(queue_peak, queue_bytes);
    window_queue_peak = std::max(window_queue_peak, queue_bytes);
    ++rounds_executed;
    snapshot_due();
    if (rounds_executed % window_rounds == 0) {
      sample_window(rounds_executed - 1);
    }
  };

  // --- Replay: warmup, the stream round by round, then drain. --------------
  // The baselines need no bootstrap, but the shared round budget keeps
  // deadlines, windows, and latency axes aligned with the dynamic lane.
  for (std::size_t i = 0; i < warmup; ++i) run_round();
  std::size_t next_event = 0;
  for (std::size_t round = 0; round < horizon; ++round) {
    for (; next_event < stream.size() && stream[next_event].round == round;
         ++next_event) {
      const workload::TrafficEvent& event = stream[next_event];
      if (event.kind == workload::TrafficEvent::Kind::kJoin) {
        slot_of.push_back(
            static_cast<std::uint32_t>(members[event.topic].size()));
        members[event.topic].push_back(
            static_cast<std::uint32_t>(topic_of.size()));
        topic_of.push_back(event.topic);
        continue;
      }
      if (event.kind != workload::TrafficEvent::Kind::kPublish) continue;
      const std::vector<std::uint32_t>& group = members[event.topic];
      if (group.empty()) continue;
      // The driver's publisher rule: the raw draw picks a starting rank,
      // scan forward to the first member alive this round.
      const std::size_t start = event.actor % group.size();
      for (std::size_t offset = 0; offset < group.size(); ++offset) {
        const std::uint32_t candidate = group[(start + offset) % group.size()];
        if (!alive(candidate, rounds_executed)) continue;
        const auto id = static_cast<std::uint32_t>(events.size());
        EventState state;
        state.topic = event.topic;
        state.publish_round = rounds_executed;
        events.push_back(std::move(state));
        PublicationRecord record;
        record.event = id;
        record.topic = event.topic;
        record.deadline = rounds_executed + std::max<std::size_t>(drain, 1);
        record.snapshot.resize(topic_count);
        for (std::uint32_t g = 0; g < topic_count; ++g) {
          record.snapshot[g] =
              static_cast<std::uint32_t>(members[g].size());
        }
        published.push_back(std::move(record));
        timeline.note_publish(rounds_executed);
        receive(id, candidate, rounds_executed);  // self-delivery, latency 0
        if (!tree) {
          gossip_forward(id, candidate, rounds_executed);
        } else if (slot_of[candidate] != 0) {
          send(id, candidate,
               group[(slot_of[candidate] - 1) / kTreeArity], 0, false,
               rounds_executed);
        } else {
          root_actions(id, candidate, rounds_executed);
        }
        break;
      }
    }
    run_round();
  }
  for (std::size_t i = 0; i < drain; ++i) run_round();
  // Final partial window: the modulo sampler only fires on full windows.
  if (rounds_executed > 0 && rounds_executed % window_rounds != 0) {
    sample_window(rounds_executed - 1);
  }

  // --- Collection (driver.cpp's shape). ------------------------------------
  result.rounds = rounds_executed;
  result.publications = published.size();

  double reliability_sum = 0.0;
  for (PublicationRecord& record : published) {
    // Deadline snapshot; publications whose deadline fell past the run's
    // last round are graded at run end. Harvested records folded their
    // group outcomes and latency at their deadlines already.
    if (record.ratio < 0.0) {
      record.ratio = deadline_ratio(record, rounds_executed);
    }
    reliability_sum += record.ratio;
    if (!record.harvested) grade(record, rounds_executed);
  }
  if (!published.empty()) {
    result.event_reliability =
        reliability_sum / static_cast<double>(published.size());
  }
  if (deliveries_total > 0) {
    result.mean_latency = static_cast<double>(latency_sum_total) /
                          static_cast<double>(deliveries_total);
  }
  const util::Timeline::Counters totals = timeline.totals();
  result.total_messages = totals.event_sends + totals.inter_sends;
  result.control_messages = totals.control_sends;

  result.groups.resize(topic_count);
  for (std::uint32_t group = 0; group < topic_count; ++group) {
    workload::DynamicGroupResult& group_result = result.groups[group];
    group_result.size = members[group].size();
    for (const std::uint32_t member : members[group]) {
      group_result.alive += alive(member, rounds_executed);
    }
    group_result.intra_sent = intra_sent[group];
    group_result.inter_sent = inter_sent[group];
    group_result.inter_received = inter_received[group];
    group_result.control_sent = control_sent[group];
    group_result.duplicate_deliveries = duplicates[group];
    group_result.ratio_samples = group_ratio_samples[group];
    group_result.all_alive_delivered = group_all_delivered[group] != 0;
    if (group_result.ratio_samples > 0) {
      group_result.delivery_ratio =
          ratio_sums[group] /
          static_cast<double>(group_result.ratio_samples);
    }
  }

  // Tree routing is pure address arithmetic and the gossip targets are
  // drawn fresh per hop — neither rival holds membership tables, so the
  // table gauge is honestly zero; the queue gauge is the hop queue's
  // high-water footprint.
  result.table_bytes = 0;
  result.queue_bytes = queue_peak;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  return result;
}

}  // namespace dam::baselines

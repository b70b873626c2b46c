#include "core/frozen_sim.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <stdexcept>

#include "core/protocol.hpp"
#include "sim/failure.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace dam::core {

namespace {

/// Process coordinates inside the engine: (topic, index-in-group).
struct Coord {
  std::uint32_t topic;
  std::uint32_t index;
};

// Chunk sizes are FIXED so the chunk grid — and with it every forked RNG
// stream and the chunk-order merge — is a pure function of the config,
// never of the worker count: threads=1 and threads=8 walk the identical
// chunk grid, only the execution interleaving differs.

/// Table rows per build task. Must stay a multiple of 64: the stillborn
/// alive flags are a bit-packed vector<bool>, and word-aligned chunk
/// boundaries are what keeps concurrent chunk fills on disjoint words.
constexpr std::size_t kRowChunk = 4096;

/// Frontier coords per wave task.
constexpr std::size_t kWaveChunk = 1024;

/// Fork salts separating the streams (arbitrary, fixed forever — they are
/// part of the stream definition).
constexpr std::uint64_t kGroupSalt = 0x7AB1E000ULL;  ///< per-group tables
constexpr std::uint64_t kRoundSalt = 0x3A7E000ULL;   ///< per-round waves

void check_offset_range(std::size_t entries) {
  if (entries > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "build_frozen_tables: arena exceeds uint32 offsets");
  }
}

}  // namespace

const TopicParams& params_for_topic(const FrozenSimConfig& config,
                                    std::size_t topic) {
  static const TopicParams kDefaults{};
  if (config.params.empty()) return kDefaults;
  return config.params[std::min(topic, config.params.size() - 1)];
}

/// Offsets are laid out serially (row widths are pure functions of the
/// sizes), then every kRowChunk-row block of every group fills from its
/// own stream
///   rng.fork(kGroupSalt + topic).fork(purpose).fork(chunk)
/// (purpose 0 = alive flags, 1 = topic rows, 2+slot = supertopic slot).
FrozenTables build_frozen_tables(const FrozenSimConfig& config,
                                 const util::Rng& rng) {
  const topics::TopicDag& dag = *config.dag;
  const bool stillborn = config.failure_mode == FrozenFailureMode::kStillborn;
  const double fail_probability = 1.0 - config.alive_fraction;

  FrozenTables tables;
  tables.groups.resize(dag.size());
  struct RowChunk {
    std::uint32_t topic;
    std::size_t chunk;
  };
  std::vector<RowChunk> chunks;

  for (std::uint32_t topic = 0; topic < dag.size(); ++topic) {
    GroupTables& group = tables.groups[topic];
    group.size = config.group_sizes[topic];
    const TopicParams& params = params_for_topic(config, topic);
    const auto& parents = dag.supers(topics::TopicId{topic});
    group.parent_count = parents.size();
    group.alive.assign(group.size, true);

    // Topic table: (b+1)·ln(S) uniform group members (failed ones stay in —
    // "the membership algorithm does not replace a failed process"). Every
    // row has the full width, so the CSR offsets are uniform.
    const std::size_t view_size =
        std::min(params.view_capacity(group.size), group.size - 1);
    check_offset_range(group.size * view_size);
    group.topic_offsets.resize(group.size + 1);
    for (std::size_t i = 0; i <= group.size; ++i) {
      group.topic_offsets[i] = static_cast<std::uint32_t>(i * view_size);
    }
    group.topic_entries.resize(group.size * view_size);

    // One supertopic table of z uniform parent-group members per direct
    // supertopic; CSR rows are process-major.
    std::size_t super_width = 0;
    for (std::size_t slot = 0; slot < parents.size(); ++slot) {
      super_width +=
          std::min(params.z, config.group_sizes[parents[slot].value]);
    }
    check_offset_range(group.size * super_width);
    group.super_offsets.assign(group.size * parents.size() + 1, 0);
    group.super_entries.resize(group.size * super_width);
    std::uint32_t running = 0;
    for (std::size_t i = 0; i < group.size; ++i) {
      for (std::size_t slot = 0; slot < parents.size(); ++slot) {
        group.super_offsets[i * parents.size() + slot] = running;
        running += static_cast<std::uint32_t>(
            std::min(params.z, config.group_sizes[parents[slot].value]));
      }
    }
    group.super_offsets[group.size * parents.size()] = running;

    for (std::size_t lo = 0; lo < group.size; lo += kRowChunk) {
      chunks.push_back(RowChunk{topic, lo / kRowChunk});
    }
  }

  util::run_parallel(chunks.size(), config.threads, [&](std::size_t task) {
    const auto [topic, chunk] = chunks[task];
    GroupTables& group = tables.groups[topic];
    const TopicParams& params = params_for_topic(config, topic);
    const auto& parents = dag.supers(topics::TopicId{topic});
    const util::Rng group_base = rng.fork(kGroupSalt + topic);
    const std::size_t lo = chunk * kRowChunk;
    const std::size_t hi = std::min(group.size, lo + kRowChunk);
    if (stillborn && fail_probability > 0.0) {
      util::Rng alive_rng = group_base.fork(0).fork(chunk);
      for (std::size_t i = lo; i < hi; ++i) {
        if (alive_rng.bernoulli(fail_probability)) group.alive[i] = false;
      }
    }
    if (group.size > 1) {
      util::Rng row_rng = group_base.fork(1).fork(chunk);
      const std::size_t view_size = group.topic_offsets[1];  // uniform rows
      std::uint32_t* row = group.topic_entries.data() + lo * view_size;
      for (std::size_t i = lo; i < hi; ++i, row += view_size) {
        row_rng.draw_distinct_below(group.size - 1, view_size, row);
        // Drawn over [0, S-1); shift past self to land on [0, S) \ {i}.
        for (std::size_t e = 0; e < view_size; ++e) row[e] += row[e] >= i;
      }
    }
    for (std::size_t slot = 0; slot < parents.size(); ++slot) {
      const std::size_t parent_size = config.group_sizes[parents[slot].value];
      util::Rng super_rng = group_base.fork(2 + slot).fork(chunk);
      for (std::size_t i = lo; i < hi; ++i) {
        std::uint32_t* row = group.super_entries.data() +
                             group.super_offsets[i * parents.size() + slot];
        super_rng.draw_distinct_below(parent_size, params.z, row);
      }
    }
  });
  return tables;
}

FrozenRunResult run_frozen_simulation(const FrozenSimConfig& config) {
  if (config.dag == nullptr) {
    throw std::invalid_argument("run_frozen_simulation: no dag");
  }
  const topics::TopicDag& dag = *config.dag;
  if (config.group_sizes.size() != dag.size()) {
    throw std::invalid_argument(
        "run_frozen_simulation: group_sizes must cover every topic");
  }
  for (std::size_t size : config.group_sizes) {
    if (size == 0) {
      // The analysis (Sec. VI-A) assumes every group is non-empty.
      throw std::invalid_argument("run_frozen_simulation: empty group");
    }
  }
  if (config.publish_topic.value >= dag.size()) {
    throw std::invalid_argument("run_frozen_simulation: bad publish topic");
  }
  util::Rng rng(config.seed);
  const bool stillborn =
      config.failure_mode == FrozenFailureMode::kStillborn;
  const bool churning = config.failure_mode == FrozenFailureMode::kChurn;
  const double fail_probability = 1.0 - config.alive_fraction;

  // --- Build frozen membership tables (Sec. VII-A). -----------------------
  const auto build_started = std::chrono::steady_clock::now();
  FrozenTables tables = build_frozen_tables(config, rng);
  std::vector<GroupTables>& groups = tables.groups;
  const auto waves_started = std::chrono::steady_clock::now();

  FrozenRunResult result;
  result.table_build_seconds =
      std::chrono::duration<double>(waves_started - build_started).count();
  result.table_bytes = tables.arena_bytes();
  result.groups.resize(dag.size());
  std::vector<std::vector<bool>> delivered(dag.size());
  for (std::uint32_t topic = 0; topic < dag.size(); ++topic) {
    result.groups[topic].size = groups[topic].size;
    result.groups[topic].alive = static_cast<std::size_t>(std::count(
        groups[topic].alive.begin(), groups[topic].alive.end(), true));
    delivered[topic].assign(groups[topic].size, false);
  }

  // Churn regime: per-process outage schedules are the first draws of the
  // run stream (the tables only fork it). Processes get global ids
  // group-major: pid = offset + index.
  std::vector<std::uint32_t> pid_offset(dag.size(), 0);
  std::optional<sim::ChurnFailures> churn;
  if (churning) {
    std::uint32_t next_pid = 0;
    for (std::uint32_t topic = 0; topic < dag.size(); ++topic) {
      pid_offset[topic] = next_pid;
      next_pid += static_cast<std::uint32_t>(groups[topic].size);
    }
    churn = sim::ChurnFailures::sample(next_pid, config.churn.horizon,
                                       config.churn.outages,
                                       config.churn.outage_length, rng);
  }
  std::size_t rounds = 0;

  auto finish_timing = [&] {
    result.dissemination_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      waves_started)
            .count();
  };

  // --- Pick the publisher. ------------------------------------------------
  const std::uint32_t publish = config.publish_topic.value;
  std::vector<std::uint32_t> alive_candidates;
  for (std::uint32_t i = 0; i < groups[publish].size; ++i) {
    const bool up_now =
        !churning ||
        churn->alive(topics::ProcessId{pid_offset[publish] + i}, 0);
    if (groups[publish].alive[i] && up_now) alive_candidates.push_back(i);
  }
  // The frozen engine's only per-process bookkeeping is the delivered
  // bitmap (no seen-sets, no recovery), constant for the whole run: sample
  // it into every window the run covers. Allocated above, so it is held —
  // and sampled — even when nobody can publish.
  const auto sample_bitmap_gauges = [&](std::size_t last_round) {
    std::size_t bitmap_bytes = 0;
    for (const std::vector<bool>& bits : delivered) {
      bitmap_bytes += (bits.size() + 7) / 8;
    }
    const std::size_t window_rounds = result.timeline.window_rounds();
    for (std::size_t round = 0; round <= last_round; round += window_rounds) {
      result.timeline.sample_gauges(round, 0, bitmap_bytes, 0);
    }
  };

  if (alive_candidates.empty()) {
    // Nobody can publish; groups with alive members trivially miss the
    // event, empty ones vacuously receive it.
    for (std::uint32_t topic = 0; topic < dag.size(); ++topic) {
      result.groups[topic].all_alive_delivered =
          result.groups[topic].alive == 0;
    }
    sample_bitmap_gauges(0);
    finish_timing();
    return result;
  }

  auto note_delivery = [&](std::uint32_t topic, std::size_t round) {
    auto& group_result = result.groups[topic];
    if (!group_result.first_delivery_round) {
      group_result.first_delivery_round = round;
    }
    group_result.last_delivery_round = round;
    // One publication at round 0: latency == delivery round. The wave loop
    // reaches here in chunk-merge order, so the sketch is deterministic.
    result.latency_sketch.add(static_cast<double>(round));
  };

  // Frontiers are two flat vectors swapped per round; together with the
  // reused chunk scratch this keeps the wave loop allocation-free at
  // steady state.
  std::vector<Coord> frontier;
  std::vector<Coord> next;
  {
    const std::uint32_t publisher =
        alive_candidates[rng.below(alive_candidates.size())];
    delivered[publish][publisher] = true;
    note_delivery(publish, 0);
    frontier.push_back(Coord{publish, publisher});
  }
  // Timeline rows: the one publication at round 0, then one weighted
  // delivery note per round after its chunk-order merge (latency == round),
  // so the timeline never touches the RNG streams and is bit-identical for
  // every --threads value.
  result.timeline.note_publish(0);
  result.timeline.note_delivery(0, 0.0);

  // --- Synchronous dissemination waves (Fig. 5 + Fig. 7). -----------------
  // The frontier is cut into fixed kWaveChunk blocks; chunk c of round r
  // draws from rng.fork(kRoundSalt + r).fork(c), reads the round-start
  // `delivered` flags, and collects its sends and receptions locally. The
  // merge then walks chunks IN CHUNK ORDER, resolving same-round duplicate
  // receptions and building the next frontier — so neither the streams
  // nor the merge depend on the worker count.
  struct TopicCounts {
    std::uint64_t intra_sent = 0;
    std::uint64_t inter_sent = 0;
    std::uint64_t inter_received = 0;
    std::uint64_t duplicates = 0;
  };
  struct ChunkState {
    std::vector<Coord> accepted;  ///< candidate receptions, emission order
    std::vector<std::uint32_t> fanout_scratch;
    std::vector<TopicCounts> counts;  ///< per topic (topic counts are small)
  };
  std::vector<ChunkState> chunks;  // indexed by chunk id, reused per round
  while (!frontier.empty()) {
    ++rounds;
    next.clear();
    const std::size_t chunk_count =
        (frontier.size() + kWaveChunk - 1) / kWaveChunk;
    if (chunks.size() < chunk_count) chunks.resize(chunk_count);
    const util::Rng round_base = rng.fork(kRoundSalt + rounds);
    util::run_parallel(chunk_count, config.threads, [&](std::size_t c) {
      ChunkState& cs = chunks[c];
      util::Rng chunk_rng = round_base.fork(c);
      cs.accepted.clear();
      cs.counts.assign(dag.size(), TopicCounts{});
      // A message to (topic, index) gets through iff the channel coin
      // succeeds AND the target is (perceived) alive — at the current round
      // in the churn regime.
      const auto gets_through = [&](const TopicParams& params,
                                    std::uint32_t topic,
                                    std::uint32_t target) {
        if (!protocol::channel_delivers(params.psucc, chunk_rng)) return false;
        if (stillborn) return static_cast<bool>(groups[topic].alive[target]);
        if (churning) {
          return churn->alive(topics::ProcessId{pid_offset[topic] + target},
                              rounds);
        }
        return !chunk_rng.bernoulli(fail_probability);  // dynamic perception
      };
      // A reception by a member delivered in an EARLIER round is a
      // duplicate whatever other chunks emit; same-round duplicates
      // resolve at the merge.
      const auto receive = [&](std::uint32_t topic, std::uint32_t target) {
        if (delivered[topic][target]) {
          ++cs.counts[topic].duplicates;
        } else {
          cs.accepted.push_back(Coord{topic, target});
        }
      };
      const std::size_t hi = std::min(frontier.size(), (c + 1) * kWaveChunk);
      for (std::size_t f = c * kWaveChunk; f < hi; ++f) {
        const Coord coord = frontier[f];
        const GroupTables& group = groups[coord.topic];
        const TopicParams& params = params_for_topic(config, coord.topic);
        const auto& parents = dag.supers(topics::TopicId{coord.topic});
        // (1) Intergroup legs (Fig. 7 lines 3–7): one independent election
        // per direct supertopic, then pa per table entry. Roots have no
        // parents and skip this.
        for (std::size_t slot = 0; slot < parents.size(); ++slot) {
          const std::uint32_t parent = parents[slot].value;
          protocol::for_each_intergroup_target(
              params, group.size, group.super_row(coord.index, slot),
              chunk_rng, [&](std::uint32_t target) {
                ++cs.counts[coord.topic].inter_sent;
                if (!gets_through(params, parent, target)) return;
                ++cs.counts[parent].inter_received;
                receive(parent, target);
              });
        }
        // (2) Intra-group gossip leg (Fig. 7 lines 8–14): fanout distinct
        // targets, without replacement (the Ω set).
        protocol::fanout_targets_into(params, group.size,
                                      group.topic_row(coord.index), chunk_rng,
                                      cs.fanout_scratch);
        cs.counts[coord.topic].intra_sent += cs.fanout_scratch.size();
        for (std::uint32_t target : cs.fanout_scratch) {
          if (gets_through(params, coord.topic, target)) {
            receive(coord.topic, target);
          }
        }
      }
    });
    // Merge in chunk order — the one order every thread count agrees on.
    for (std::size_t c = 0; c < chunk_count; ++c) {
      const ChunkState& cs = chunks[c];
      for (std::uint32_t topic = 0; topic < dag.size(); ++topic) {
        auto& group_result = result.groups[topic];
        group_result.intra_sent += cs.counts[topic].intra_sent;
        group_result.inter_sent += cs.counts[topic].inter_sent;
        group_result.inter_received += cs.counts[topic].inter_received;
        group_result.duplicate_deliveries += cs.counts[topic].duplicates;
      }
      for (const Coord& coord : cs.accepted) {
        if (delivered[coord.topic][coord.index]) {
          ++result.groups[coord.topic].duplicate_deliveries;
          continue;
        }
        delivered[coord.topic][coord.index] = true;
        note_delivery(coord.topic, rounds);
        next.push_back(coord);
      }
    }
    result.timeline.note_delivery(rounds, static_cast<double>(rounds),
                                  next.size());
    frontier.swap(next);
  }

  // --- Final accounting. --------------------------------------------------
  result.rounds = rounds;
  for (std::uint32_t topic = 0; topic < dag.size(); ++topic) {
    const GroupTables& group = groups[topic];
    auto& group_result = result.groups[topic];
    std::size_t count = 0;
    for (std::size_t i = 0; i < group.size; ++i) {
      if (group.alive[i] && delivered[topic][i]) ++count;
    }
    group_result.delivered = count;
    // "All delivered" only meaningful for groups the event should reach:
    // the publish topic and its ancestor closure. Other groups are correct
    // exactly when they stayed clean.
    const bool should_receive =
        dag.includes(topics::TopicId{topic}, config.publish_topic);
    group_result.all_alive_delivered =
        should_receive ? count == group_result.alive : count == 0;
    if (should_receive) result.expected_deliveries += group_result.alive;
    result.total_messages +=
        group_result.intra_sent + group_result.inter_sent;
  }

  sample_bitmap_gauges(rounds);

  finish_timing();
  return result;
}

}  // namespace dam::core

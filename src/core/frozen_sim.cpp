#include "core/frozen_sim.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

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
/// (purpose 0 = stillborn flags, drawn by draw_frozen_start; 1 = topic
/// rows; 2+slot = supertopic slot).
FrozenTables build_frozen_tables(const FrozenSimConfig& config,
                                 const util::Rng& rng) {
  const topics::TopicDag& dag = *config.dag;
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

FrozenStart draw_frozen_start(const FrozenSimConfig& config, util::Rng& rng) {
  const double fail_probability = 1.0 - config.alive_fraction;
  const bool stillborn = config.failure_mode == FrozenFailureMode::kStillborn;
  FrozenStart start;
  std::uint32_t pids = 0;
  for (std::uint32_t topic = 0; topic < config.dag->size(); ++topic) {
    start.first.push_back(pids);
    pids += static_cast<std::uint32_t>(config.group_sizes[topic]);
    std::vector<bool>& alive =
        start.alive.emplace_back(config.group_sizes[topic], true);
    if (!stillborn || fail_probability <= 0.0) continue;
    const std::size_t chunks = (alive.size() + kRowChunk - 1) / kRowChunk;
    util::run_parallel(chunks, config.threads, [&](std::size_t chunk) {
      util::Rng coins = rng.fork(kGroupSalt + topic).fork(0).fork(chunk);
      const std::size_t hi = std::min(alive.size(), (chunk + 1) * kRowChunk);
      for (std::size_t i = chunk * kRowChunk; i < hi; ++i) {
        if (coins.bernoulli(fail_probability)) alive[i] = false;
      }
    });
  }
  if (config.failure_mode == FrozenFailureMode::kChurn) {
    start.churn = sim::ChurnFailures::sample(pids, config.churn.horizon,
                                             config.churn.outages,
                                             config.churn.outage_length, rng);
  }
  const std::uint32_t publish = config.publish_topic.value;
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t i = 0; i < start.alive[publish].size(); ++i) {
    const std::uint32_t pid = start.first[publish] + i;
    if (start.alive[publish][i] &&
        (!start.churn || start.churn->alive(topics::ProcessId{pid}, 0))) {
      candidates.push_back(pid);
    }
  }
  if (!candidates.empty()) {
    start.publisher = candidates[rng.below(candidates.size())];
  }
  return start;
}

void validate_frozen_config(const FrozenSimConfig& config, const char* who) {
  const auto fail = [who](const char* what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  if (config.dag == nullptr) fail("no dag");
  if (config.group_sizes.size() != config.dag->size()) {
    fail("group_sizes must cover every topic");
  }
  // The analysis (Sec. VI-A) assumes every group is non-empty.
  for (std::size_t size : config.group_sizes) {
    if (size == 0) fail("empty group");
  }
  if (config.publish_topic.value >= config.dag->size()) {
    fail("bad publish topic");
  }
}

FrozenRunResult run_frozen_simulation(const FrozenSimConfig& config) {
  validate_frozen_config(config, "run_frozen_simulation");
  const topics::TopicDag& dag = *config.dag;
  util::Rng rng(config.seed);
  const bool stillborn =
      config.failure_mode == FrozenFailureMode::kStillborn;
  const bool churning = config.failure_mode == FrozenFailureMode::kChurn;
  const double fail_probability = 1.0 - config.alive_fraction;

  // --- Frozen membership tables (Sec. VII-A), then the run's start. -------
  const auto build_started = std::chrono::steady_clock::now();
  FrozenTables tables = build_frozen_tables(config, rng);
  std::vector<GroupTables>& groups = tables.groups;
  FrozenStart start = draw_frozen_start(config, rng);
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
        start.alive[topic].begin(), start.alive[topic].end(), true));
    delivered[topic].assign(groups[topic].size, false);
  }
  std::size_t rounds = 0;

  auto finish_timing = [&] {
    result.dissemination_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      waves_started)
            .count();
  };

  // The frozen engine's only per-process bookkeeping is the delivered
  // bitmap (no seen-sets, no recovery). Allocated above, so it is held —
  // and sampled — even when nobody can publish.
  std::size_t bitmap_bytes = 0;
  for (const std::vector<bool>& bits : delivered) {
    bitmap_bytes += (bits.size() + 7) / 8;
  }

  if (!start.publisher) {
    // Nobody can publish: interested groups with alive members miss the
    // event, every other group is trivially correct.
    grade_frozen_run(config, {}, bitmap_bytes, result);
    finish_timing();
    return result;
  }

  auto note_delivery = [&](std::uint32_t topic, std::size_t round) {
    auto& group_result = result.groups[topic];
    if (!group_result.first_delivery_round) {
      group_result.first_delivery_round = round;
    }
    group_result.last_delivery_round = round;
  };

  // Frontiers are two flat vectors swapped per round; together with the
  // reused chunk scratch this keeps the wave loop allocation-free at
  // steady state.
  std::vector<Coord> frontier;
  std::vector<Coord> next;
  {
    const std::uint32_t publish = config.publish_topic.value;
    const std::uint32_t publisher = *start.publisher - start.first[publish];
    delivered[publish][publisher] = true;
    note_delivery(publish, 0);
    frontier.push_back(Coord{publish, publisher});
  }
  // First deliveries per round, counted after each round's chunk-order
  // merge, so the timeline and the latency sketch never touch the RNG
  // streams and are bit-identical for every --threads value. Every
  // delivery here is an interested one: events only travel up the DAG.
  std::vector<std::uint64_t> deliveries_per_round{1};

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
    // The workers probe the schedule concurrently: move its liveness
    // cursor to this round first, so their alive() calls only read.
    if (churning) start.churn->advance_to(rounds);
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
        if (stillborn) return static_cast<bool>(start.alive[topic][target]);
        if (churning) {
          return start.churn->alive(
              topics::ProcessId{start.first[topic] + target}, rounds);
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
    deliveries_per_round.push_back(next.size());
    frontier.swap(next);
  }

  // --- Final accounting. --------------------------------------------------
  result.rounds = rounds;
  for (std::uint32_t topic = 0; topic < dag.size(); ++topic) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < groups[topic].size; ++i) {
      if (start.alive[topic][i] && delivered[topic][i]) ++count;
    }
    result.groups[topic].delivered = count;
  }
  grade_frozen_run(config, deliveries_per_round, bitmap_bytes, result);
  finish_timing();
  return result;
}

void grade_frozen_run(const FrozenSimConfig& config,
                      std::span<const std::uint64_t> deliveries_per_round,
                      std::size_t bitmap_bytes, FrozenRunResult& result) {
  const bool published = !deliveries_per_round.empty();
  if (published) result.timeline.note_publish(0);
  for (std::size_t round = 0; round < deliveries_per_round.size(); ++round) {
    const auto latency = static_cast<double>(round);
    result.timeline.note_delivery(round, latency, deliveries_per_round[round]);
    result.latency_sketch.add(latency, deliveries_per_round[round]);
  }
  for (std::uint32_t topic = 0; topic < result.groups.size(); ++topic) {
    FrozenGroupResult& row = result.groups[topic];
    const bool should_receive =
        config.dag->includes(topics::TopicId{topic}, config.publish_topic);
    row.all_alive_delivered =
        should_receive ? row.delivered == row.alive : row.delivered == 0;
    if (published && should_receive) result.expected_deliveries += row.alive;
    result.total_messages += row.intra_sent + row.inter_sent;
  }
  for (std::size_t round = 0; round <= result.rounds;
       round += util::Timeline::window_rounds()) {
    result.timeline.sample_gauges(round, 0, bitmap_bytes, 0);
  }
}

}  // namespace dam::core

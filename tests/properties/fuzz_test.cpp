// Randomized ("fuzz-style") property tests: the bench-JSON reader and the
// --grid parser must be total over arbitrary input (parse or throw their
// documented exception), and the protocol invariants must hold over
// randomly generated hierarchies, populations and parameters — not just
// the hand-picked shapes in invariants_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/frozen_sim.hpp"
#include "core/system.hpp"
#include "exp/grid.hpp"
#include "frozen_chain.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"
#include "owned_message.hpp"
#include "sim/scenario.hpp"
#include "topics/dag.hpp"
#include "topics/dag.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace dam {
namespace {

/// Parses `text`; false when it threw the reader's documented
/// std::runtime_error (any other exception escapes and fails the test).
bool json_parses(std::string_view text) {
  try {
    (void)util::json::parse(text);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

/// `count` characters drawn from `alphabet` tokens, biased toward the
/// syntax a parser branches on so inputs get past the first byte.
std::string random_text(util::Rng& rng, std::size_t count,
                        const std::vector<std::string_view>& alphabet) {
  std::string text;
  for (std::size_t i = 0; i < count; ++i) {
    text += alphabet[rng.below(alphabet.size())];
  }
  return text;
}

TEST(JsonFuzz, ParseIsTotalOverRandomText) {
  const std::vector<std::string_view> alphabet{
      "{", "}", "[", "]", "\"", ":", ",", " ", "0", "7", "-", ".", "e",
      "+", "true", "false", "null", "\\", "\\u", "a", "\n", "\x01",
      "\xff"};
  util::Rng rng(0x150F);
  std::size_t parsed = 0;
  for (int trial = 0; trial < 40000; ++trial) {
    std::string text;
    if (trial % 4 == 0) {
      text.resize(rng.below(48));
      for (char& c : text) c = static_cast<char>(rng.below(256));
    } else {
      text = random_text(rng, rng.below(24), alphabet);
    }
    parsed += json_parses(text);
  }
  SUCCEED() << parsed << " of 40000 random texts parsed";
}

TEST(JsonFuzz, HostileNestingIsAnErrorNotAStackOverflow) {
  EXPECT_FALSE(json_parses(std::string(100000, '[')));
  EXPECT_FALSE(json_parses(std::string(300, '[') + std::string(300, ']')));
  EXPECT_TRUE(json_parses(std::string(200, '[') + std::string(200, ']')));
}

TEST(JsonFuzz, MutatedBenchDocumentParsesOrThrows) {
  std::ifstream file(std::string(DAM_SOURCE_DIR) +
                     "/bench/BENCH_baseline.json");
  ASSERT_TRUE(file.good());
  const std::string document{std::istreambuf_iterator<char>(file),
                             std::istreambuf_iterator<char>()};
  ASSERT_TRUE(json_parses(document));
  util::Rng rng(0xBE7C);
  std::size_t parsed = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // One to three bit flips anywhere, then sometimes a truncation.
    std::string mutated = document;
    const std::size_t flips = 1 + rng.below(3);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<char>(1u << rng.below(8));
    }
    if (trial % 3 == 0) mutated.resize(rng.below(mutated.size()));
    parsed += json_parses(mutated);
  }
  SUCCEED() << parsed << " of 300 mutated documents parsed";
}

TEST(GridFuzz, ParserIsTotalOverItsKeyAlphabet) {
  const std::vector<std::string_view> alphabet{
      "a",      "b",          "c",          "g",         "psucc",
      "tau",    "z",          "alive",      "scale",     "depth",
      "fanin",  "runs",       "rate",       "zipf_s",    "crash_frac",
      "leave_frac", "join_frac", "publishers", "horizon", "gc_horizon",
      "=",      "=",          ",",          ":",         ";",
      " ",      "0",          "1",          "2",         "9",
      ".",      "-",          "e",          "e9",        "inf",
      "nan",    "x"};
  const sim::Scenario* frozen = sim::find_scenario("fig9");
  const sim::Scenario* dynamic = sim::find_scenario("zipf-storm");
  ASSERT_NE(frozen, nullptr);
  ASSERT_NE(dynamic, nullptr);
  util::Rng rng(0x6A1D);
  std::size_t applied = 0;
  for (int trial = 0; trial < 30000; ++trial) {
    const std::string spec = random_text(rng, rng.below(12), alphabet);
    std::vector<exp::GridAxis> axes;
    try {
      axes = exp::parse_grid(spec);
    } catch (const std::invalid_argument&) {
      continue;
    }
    std::size_t cells = 1;
    for (const exp::GridAxis& axis : axes) {
      ASSERT_FALSE(axis.values.empty()) << spec;
      ASSERT_LE(axis.values.size(), 10000u) << spec;
      for (const double value : axis.values) {
        ASSERT_TRUE(std::isfinite(value)) << spec;
      }
      cells *= axis.values.size();
      if (cells > 64) break;
    }
    if (cells > 64) continue;  // expansion is the product; keep it small
    for (const exp::GridPoint& point : exp::expand_grid(axes)) {
      for (const sim::Scenario* preset : {frozen, dynamic}) {
        sim::Scenario scenario = *preset;
        try {
          exp::apply_grid_point(scenario, point);
          ++applied;
        } catch (const std::invalid_argument&) {
        }
      }
    }
  }
  SUCCEED() << applied << " grid cells applied";
}

/// Builds a random topic tree with `topic_count` topics under the root.
std::vector<topics::TopicId> random_tree(topics::TopicDag& hierarchy,
                                         std::size_t topic_count,
                                         util::Rng& rng) {
  std::vector<topics::TopicId> ids{topics::intern_path(hierarchy, ".")};
  for (std::size_t i = 0; i < topic_count; ++i) {
    const topics::TopicId parent = ids[rng.below(ids.size())];
    std::string path = parent == ids.front() ? "" : hierarchy.name(parent);
    path += ".s";
    path += std::to_string(i);
    ids.push_back(topics::intern_path(hierarchy, path));
  }
  return ids;
}

// Random tree, random populations, three random publishers, lossless
// channels. Checks the invariants that hold on every seed (no parasites,
// only interested receivers, the memory bound, no upward send from the
// root) and returns whether every event reached over 80% of its
// interested set.
bool run_random_tree(std::uint64_t seed) {
  util::Rng rng(seed);
  topics::TopicDag hierarchy;
  const auto ids = random_tree(hierarchy, 3 + rng.below(8), rng);

  core::DamSystem::Config config;
  config.seed = seed * 31 + 7;
  config.auto_wire_super_tables = true;
  config.node.params.psucc = 1.0;
  core::DamSystem system(hierarchy, config);

  // Random population per topic (every topic non-empty).
  for (topics::TopicId id : ids) {
    system.spawn_group(id, 2 + rng.below(12));
  }
  system.run_rounds(3);

  // Publish from 3 random processes.
  std::vector<net::EventId> events;
  for (int i = 0; i < 3; ++i) {
    const auto publisher = topics::ProcessId{
        static_cast<std::uint32_t>(rng.below(system.process_count()))};
    events.push_back(system.publish(publisher));
  }
  system.run_rounds(30);

  // Invariant: zero parasites, ever.
  EXPECT_EQ(system.metrics().parasite_deliveries(), 0u);

  bool covered = true;
  for (const auto& event : events) {
    const auto& delivered = system.delivered_set(event);
    // Every receiver is genuinely interested.
    const topics::TopicId event_topic =
        system.registry().topic_of(event.publisher);
    for (topics::ProcessId p : delivered) {
      EXPECT_TRUE(system.registry().interested_in(p, event_topic));
    }
    covered = covered && system.delivery_ratio(event) > 0.8;
  }

  // Memory bound for every process.
  for (std::uint32_t p = 0; p < system.process_count(); ++p) {
    const auto& node = system.node(topics::ProcessId{p});
    const std::size_t S = system.registry().group_size(node.topic());
    EXPECT_LE(node.memory_footprint(),
              node.config().params.view_capacity(S) +
                  node.config().params.z);
  }

  // Root group never forwards upward.
  EXPECT_EQ(system.metrics().group(topics::kRootTopic).inter_sent, 0u);
  return covered;
}

class RandomTopologyFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTopologyFuzz, InvariantsHoldOnRandomTrees) {
  (void)run_random_tree(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTopologyFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

// Good coverage of the interested set after three warm-up rounds is a
// per-seed gossip outcome on small random trees, so it is asserted as a
// rate over 600 seeds: the bound sits four binomial standard deviations
// below the rate measured on two table-sampling streams (554 and 558 of
// 600), and the invariants above run on every seed.
TEST(RandomTopologyCoverage, EveryEventCoversItsInterestedSetOnMostTrees) {
  int covered = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    covered += run_random_tree(seed) ? 1 : 0;
  }
  EXPECT_GE(covered, 527) << covered << " of 600 seeds";
}

class RandomChainFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomChainFuzz, ChainAccountingAlwaysConsistent) {
  util::Rng rng(GetParam() * 977);
  const std::size_t levels = 1 + rng.below(5);
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < levels; ++i) {
    sizes.push_back(1 + rng.below(200));
  }
  const testing::Chain chain(std::move(sizes));
  core::FrozenSimConfig config = chain.config(GetParam());
  core::TopicParams params;
  params.c = static_cast<double>(rng.below(8));
  params.g = 1.0 + static_cast<double>(rng.below(10));
  params.z = 1 + rng.below(5);
  params.a = 1.0 + static_cast<double>(rng.below(params.z));
  params.psucc = 0.2 + 0.8 * rng.uniform01();
  params.tau = rng.below(params.z + 1);
  config.params = {params};
  config.alive_fraction = rng.uniform01();
  const std::size_t publish_level = rng.below(levels);
  config.publish_topic =
      topics::TopicId{static_cast<std::uint32_t>(publish_level)};

  const auto result = core::run_frozen_simulation(config);

  std::uint64_t recomputed_total = 0;
  for (std::size_t level = 0; level < levels; ++level) {
    const auto& group = result.groups[level];
    recomputed_total += group.intra_sent + group.inter_sent;
    EXPECT_LE(group.delivered, group.alive);
    EXPECT_LE(group.alive, group.size);
    // Received never exceeds what the level below sent.
    if (level + 1 < levels) {
      EXPECT_LE(group.inter_received, result.groups[level + 1].inter_sent);
    }
    // Latency timestamps consistent with delivery.
    EXPECT_EQ(group.first_delivery_round.has_value(), group.delivered > 0);
    if (group.first_delivery_round) {
      EXPECT_LE(*group.first_delivery_round, *group.last_delivery_round);
    }
    // Levels below the publish level never see traffic.
    if (level > publish_level) {
      EXPECT_EQ(group.delivered, 0u);
      EXPECT_EQ(group.intra_sent, 0u);
    }
  }
  EXPECT_EQ(result.total_messages, recomputed_total);
  // Root never sends intergroup messages.
  EXPECT_EQ(result.groups[0].inter_sent, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChainFuzz,
                         ::testing::Range<std::uint64_t>(1, 26));

class RandomDagFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDagFuzz, DagEngineInvariantsOnRandomDags) {
  util::Rng rng(GetParam() * 409 + 3);
  // Random DAG: topics in topological order; each non-first topic gets
  // 1..3 parents among earlier topics (always acyclic by construction).
  topics::TopicDag dag;
  const std::size_t topic_count = 3 + rng.below(7);
  std::vector<topics::TopicId> ids;
  for (std::size_t i = 0; i < topic_count; ++i) {
    std::string name = "t";
    name += std::to_string(i);
    ids.push_back(dag.add_topic(name));
    if (i == 0) continue;
    const std::size_t parent_count = 1 + rng.below(std::min<std::size_t>(i, 3));
    const auto parents = rng.sample(
        std::vector<topics::TopicId>(ids.begin(), ids.end() - 1),
        parent_count);
    for (topics::TopicId parent : parents) {
      dag.add_super(ids.back(), parent);
    }
  }

  core::FrozenSimConfig config;
  config.dag = &dag;
  for (std::size_t i = 0; i < topic_count; ++i) {
    config.group_sizes.push_back(2 + rng.below(60));
  }
  config.params.front().psucc = 0.5 + 0.5 * rng.uniform01();
  config.alive_fraction = 0.5 + 0.5 * rng.uniform01();
  config.publish_topic = ids[rng.below(ids.size())];
  config.seed = GetParam();

  const auto result = core::run_frozen_simulation(config);

  std::uint64_t recomputed_total = 0;
  for (std::size_t i = 0; i < topic_count; ++i) {
    const auto& group = result.groups[i];
    recomputed_total += group.intra_sent + group.inter_sent;
    EXPECT_LE(group.delivered, group.alive);
    EXPECT_LE(group.alive, group.size);
    // Only the publish topic and its ancestors may receive anything —
    // the DAG analogue of "no parasite messages".
    const bool should_receive =
        dag.includes(topics::TopicId{static_cast<std::uint32_t>(i)},
                     config.publish_topic);
    if (!should_receive) {
      EXPECT_EQ(group.delivered, 0u) << "parasite group " << i;
      EXPECT_EQ(group.intra_sent, 0u);
      EXPECT_EQ(group.inter_sent, 0u);
    }
    // Roots of the DAG never send intergroup messages.
    if (dag.is_root(topics::TopicId{static_cast<std::uint32_t>(i)})) {
      EXPECT_EQ(group.inter_sent, 0u);
    }
  }
  EXPECT_EQ(result.total_messages, recomputed_total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagFuzz,
                         ::testing::Range<std::uint64_t>(1, 16));

// Slab-queue recycling under a sustained (long-horizon) randomized load:
// thousands of rounds of mixed event fan-outs and control bursts must keep
// the transport at WINDOW-sized state — slabs parked and reused rather
// than accumulated, interned event bodies released when their last copy
// lands, and the whole-run accounting identity intact. This is the memory
// contract the steady lane leans on: in-flight footprint is a function of
// per-round traffic, never of run length.
class TransportRecycleFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransportRecycleFuzz, LongHorizonKeepsSlabStateWindowSized) {
  util::Rng rng(GetParam() * 7121 + 5);
  net::Transport transport(0.9, util::Rng(GetParam()), nullptr);
  constexpr sim::Round kRounds = 2000;
  std::uint32_t sequence = 0;
  for (sim::Round round = 0; round < kRounds; ++round) {
    const std::uint64_t sent_before = transport.stats().sent;
    // A random number of publications, each fanned to a random target set.
    const std::size_t publications = rng.below(3);
    for (std::size_t p = 0; p < publications; ++p) {
      testing::OwnedMessage event;
      event.kind = net::MsgKind::kEvent;
      event.from = topics::ProcessId{static_cast<std::uint32_t>(rng.below(50))};
      event.topic = topics::TopicId{static_cast<std::uint32_t>(rng.below(3))};
      event.event = net::EventId{event.from, ++sequence};
      event.payload.assign(8 + rng.below(32),
                           static_cast<std::uint8_t>(round & 0xFF));
      const std::size_t fanout = 1 + rng.below(25);
      net::Message copy = event.view();
      for (std::size_t i = 0; i < fanout; ++i) {
        copy.to = topics::ProcessId{static_cast<std::uint32_t>(rng.below(50))};
        copy.body = transport.send(copy, round);
      }
    }
    // Control chatter with populated variable-length arenas.
    for (std::size_t i = rng.below(6); i > 0; --i) {
      testing::OwnedMessage ctrl;
      ctrl.kind = net::MsgKind::kMembership;
      ctrl.from = topics::ProcessId{static_cast<std::uint32_t>(rng.below(50))};
      ctrl.to = topics::ProcessId{static_cast<std::uint32_t>(rng.below(50))};
      for (std::size_t k = rng.below(4); k > 0; --k) {
        ctrl.processes.push_back(
            topics::ProcessId{static_cast<std::uint32_t>(rng.below(99))});
        ctrl.event_ids.push_back(net::EventId{
            topics::ProcessId{static_cast<std::uint32_t>(rng.below(50))},
            static_cast<std::uint32_t>(rng.below(sequence + 1))});
      }
      transport.send(ctrl.view(), round);
    }
    transport.deliver_round(round, [](const net::Message&) {});
    // Round by round, only this round's sends are still in flight.
    ASSERT_EQ(transport.queued_records(),
              transport.stats().sent - sent_before)
        << "round " << round;
  }
  transport.deliver_round(kRounds, [](const net::Message&) {});

  // Fully drained: no records, no live interned bodies, zero footprint.
  EXPECT_TRUE(transport.idle());
  EXPECT_EQ(transport.queued_records(), 0u);
  EXPECT_EQ(transport.bodies().live(), 0u);
  EXPECT_EQ(transport.queue_bytes(), 0u);

  // Whole-run accounting identity: every send was delivered or lost.
  const net::Transport::Stats& stats = transport.stats();
  EXPECT_EQ(stats.sent, stats.delivered + stats.lost_channel +
                            stats.lost_failure);
  EXPECT_GT(stats.delivered, 0u);

  // The run-length independence claim itself: the high-water mark was set
  // by one busy ~2-round window (the queue holds at most two rounds'
  // sends), never by accumulation. The worst 2-round volume under
  // this traffic law is well under 8 KiB of records + bodies + arenas; a
  // leak of even one 24-byte record per round would alone add ~47 KiB.
  EXPECT_LE(stats.peak_queue_bytes, std::size_t{32} * 1024);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransportRecycleFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace dam

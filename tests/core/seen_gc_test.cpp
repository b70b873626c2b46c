// Duplicate suppression (forward on first reception, Fig. 5 lines 5–10):
// DamNode against the scripted FakeEnv store, then DamSystem's seen
// columns — one bit per process per publication, released after
// retirement plus NodeConfig::seen_gc_horizon rounds.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/node.hpp"
#include "core/system.hpp"
#include "fake_env.hpp"
#include "topics/dag.hpp"

namespace dam::core {
namespace {

using testing::FakeEnv;

class SeenGcTest : public ::testing::Test {
 protected:
  SeenGcTest() {
    levels_ = topics::make_linear_hierarchy(hierarchy_, 1);
    env_.group_sizes[levels_[1].value] = 10;
  }

  Message event_msg(std::uint32_t publisher, std::uint32_t seq) {
    Message msg;
    msg.kind = MsgKind::kEvent;
    msg.from = ProcessId{publisher};
    msg.to = ProcessId{0};
    msg.topic = levels_[1];
    msg.event = net::EventId{ProcessId{publisher}, seq};
    return msg;
  }

  topics::TopicDag hierarchy_;
  std::vector<topics::TopicId> levels_;
  FakeEnv env_;
};

TEST_F(SeenGcTest, UnboundedByDefault) {
  NodeConfig config;
  DamNode node(ProcessId{0}, levels_[1], &hierarchy_, config, 10,
               util::Rng(1), &env_);
  node.subscribe({ProcessId{1}}, {ProcessId{50}});
  for (std::uint32_t seq = 0; seq < 500; ++seq) {
    node.on_message(event_msg(9, seq));
  }
  // Every event remembered: replays are all suppressed.
  for (std::uint32_t seq = 0; seq < 500; ++seq) {
    EXPECT_TRUE(node.has_seen(net::EventId{ProcessId{9}, seq}));
  }
  EXPECT_FALSE(node.has_seen(net::EventId{ProcessId{9}, 500}));
}

TEST_F(SeenGcTest, RecentDuplicatesStillSuppressed) {
  NodeConfig config;
  DamNode node(ProcessId{0}, levels_[1], &hierarchy_, config, 10,
               util::Rng(1), &env_);
  node.subscribe({ProcessId{1}}, {ProcessId{50}});
  node.on_message(event_msg(9, 0));
  const auto delivered = env_.delivered.size();
  node.on_message(event_msg(9, 0));  // already seen: suppressed
  EXPECT_EQ(env_.delivered.size(), delivered);
  EXPECT_EQ(node.duplicate_count(), 1u);
}

TEST_F(SeenGcTest, PublishedEventsAreSeenByThePublisherOnly) {
  NodeConfig config;
  DamNode publisher(ProcessId{0}, levels_[1], &hierarchy_, config, 10,
                    util::Rng(1), &env_);
  DamNode peer(ProcessId{1}, levels_[1], &hierarchy_, config, 10,
               util::Rng(2), &env_);
  publisher.subscribe({ProcessId{1}}, {ProcessId{50}});
  peer.subscribe({ProcessId{0}}, {ProcessId{50}});
  const auto own = publisher.publish();
  EXPECT_TRUE(publisher.has_seen(own));
  EXPECT_FALSE(peer.has_seen(own));  // the store is keyed by process
  // The publisher's own event echoed back is a duplicate.
  Message echo = event_msg(0, own.sequence);
  echo.from = ProcessId{1};
  publisher.on_message(echo);
  EXPECT_EQ(publisher.duplicate_count(), 1u);
}

// --- DamSystem's seen columns. --------------------------------------------

/// Lossless single-group system with auto-wired tables.
DamSystem::Config lossless(std::uint64_t seed, std::size_t horizon) {
  DamSystem::Config config;
  config.seed = seed;
  config.auto_wire_super_tables = true;
  config.node.params.psucc = 1.0;
  config.node.seen_gc_horizon = horizon;
  return config;
}

/// A copy of `event` as if forwarded by `from` to `to` on `topic`.
Message event_copy(net::EventId event, ProcessId from, ProcessId to,
                   TopicId topic) {
  Message msg;
  msg.kind = MsgKind::kEvent;
  msg.from = from;
  msg.to = to;
  msg.topic = topic;
  msg.event = event;
  return msg;
}

TEST(SeenColumns, HorizonShorterThanTheWaveNeverRedelivers) {
  // A 2-round horizon is far shorter than the wave through 200 processes.
  // A per-process seen set would forget the id mid-wave and deliver it
  // again; the column outlives the live publication, so every process
  // delivers at most once.
  topics::TopicDag hierarchy;
  topics::intern_path(hierarchy, ".");  // the root group's topic
  DamSystem system(hierarchy, lossless(17, 2));
  const auto members = system.spawn_group(topics::kRootTopic, 200);
  system.run_rounds(3);
  std::map<std::uint32_t, int> deliveries;
  system.set_delivery_handler([&](ProcessId subscriber, const Message&) {
    ++deliveries[subscriber.value];
  });
  const auto event = system.publish(members[0]);
  system.run_rounds(30);
  EXPECT_EQ(system.redeliveries(), 0u);
  for (const auto& [process, count] : deliveries) {
    EXPECT_EQ(count, 1) << "process " << process;
  }
  EXPECT_EQ(deliveries.size(), system.delivered_set(event).size());
  EXPECT_GT(system.delivery_ratio(event), 0.95);
}

TEST(SeenColumns, ReleasedOnlyAfterRetirementAndHorizon) {
  constexpr std::size_t kHorizon = 12;  // longer than one wave
  topics::TopicDag hierarchy;
  topics::intern_path(hierarchy, ".");  // the root group's topic
  DamSystem system(hierarchy, lossless(5, kHorizon));
  const auto members = system.spawn_group(topics::kRootTopic, 40);
  system.run_rounds(3);
  const auto event = system.publish(members[0]);
  const std::size_t column_bytes = sizeof(std::uint64_t);  // 40 bits
  EXPECT_EQ(system.bookkeeping_gauges().seen_bytes, column_bytes);

  // Horizon passed, but the publication is live: the column stays.
  system.run_rounds(kHorizon + 4);
  EXPECT_EQ(system.bookkeeping_gauges().seen_bytes, column_bytes);
  EXPECT_TRUE(system.node(members[0]).has_seen(event));

  // Retired after the horizon: released at the end of the next round.
  system.retire_event(event);
  EXPECT_EQ(system.bookkeeping_gauges().seen_bytes, column_bytes);
  EXPECT_TRUE(system.node(members[0]).has_seen(event));
  system.run_rounds(1);
  EXPECT_EQ(system.bookkeeping_gauges().seen_bytes, 0u);
  for (const ProcessId p : members) {
    EXPECT_FALSE(system.node(p).has_seen(event));
  }

  // Retired before the horizon: the column waits for first mark + horizon.
  const sim::Round second_mark = system.now();
  const auto second = system.publish(members[1]);
  system.run_rounds(1);
  system.retire_event(second);
  while (system.now() <= second_mark + kHorizon) {
    EXPECT_EQ(system.bookkeeping_gauges().seen_bytes, column_bytes)
        << "round " << system.now();
    EXPECT_TRUE(system.node(members[1]).has_seen(second));
    system.run_rounds(1);
  }
  EXPECT_EQ(system.bookkeeping_gauges().seen_bytes, 0u);

  // A released id arriving again is new: delivered (as a retired
  // delivery) and forwarded once, then a duplicate again — and it stays
  // out of the retired publication's delivered set.
  const ProcessId target = members[7];
  const std::size_t retired_before = system.retired_deliveries();
  const std::size_t duplicates_before = system.node(target).duplicate_count();
  const Message late =
      event_copy(event, members[3], target, topics::kRootTopic);
  system.node(target).on_message(late);
  EXPECT_EQ(system.retired_deliveries(), retired_before + 1);
  EXPECT_TRUE(system.node(target).has_seen(event));
  EXPECT_EQ(system.bookkeeping_gauges().seen_bytes, column_bytes);
  system.node(target).on_message(late);
  EXPECT_EQ(system.node(target).duplicate_count(), duplicates_before + 1);
  EXPECT_TRUE(system.delivered_set(event).empty());
  // The re-opened column is released again once its own horizon passes.
  system.run_rounds(2 * kHorizon);
  EXPECT_EQ(system.bookkeeping_gauges().seen_bytes, 0u);
  EXPECT_EQ(system.redeliveries(), 0u);
}

TEST(SeenColumns, ProcessSpawnedMidWaveBeyondTheColumnWidth) {
  topics::TopicDag hierarchy;
  topics::intern_path(hierarchy, ".");  // the root group's topic
  DamSystem system(hierarchy, lossless(23, 0));
  const auto members = system.spawn_group(topics::kRootTopic, 64);
  system.run_rounds(3);
  const auto event = system.publish(members[0]);
  system.run_rounds(1);  // mid-wave
  EXPECT_EQ(system.bookkeeping_gauges().seen_bytes, sizeof(std::uint64_t));

  const ProcessId late = system.spawn(topics::kRootTopic);
  ASSERT_EQ(late.value, 64u);  // first bit past the one-word column
  EXPECT_FALSE(system.node(late).has_seen(event));
  EXPECT_FALSE(system.delivered_set(event).contains(late));

  const Message copy = event_copy(event, members[1], late, topics::kRootTopic);
  system.node(late).on_message(copy);
  EXPECT_TRUE(system.node(late).has_seen(event));
  EXPECT_TRUE(system.delivered_set(event).contains(late));
  EXPECT_EQ(system.bookkeeping_gauges().seen_bytes, 2 * sizeof(std::uint64_t));
  system.node(late).on_message(copy);
  EXPECT_EQ(system.node(late).duplicate_count(), 1u);

  std::map<std::uint32_t, int> deliveries;
  system.set_delivery_handler([&](ProcessId subscriber, const Message&) {
    ++deliveries[subscriber.value];
  });
  system.run_rounds(30);
  EXPECT_EQ(deliveries.count(late.value), 0u);  // never delivered twice
  for (const auto& [process, count] : deliveries) EXPECT_EQ(count, 1);
  EXPECT_FALSE(system.seen(ProcessId{65}, event));  // no such bit yet
}

TEST(SeenColumns, DeliveredSetMatchesBruteForceScan) {
  auto hierarchy = std::make_unique<topics::TopicDag>();
  const auto leaf = topics::intern_path(*hierarchy, ".a.b");
  const auto mid = *hierarchy->find(".a");
  DamSystem::Config config = lossless(31, 0);
  config.node.params.psucc = 0.8;  // lossy: partial sets mid-wave
  DamSystem system(*hierarchy, config);
  system.spawn_group(topics::kRootTopic, 30);
  const auto mids = system.spawn_group(mid, 70);
  const auto leaves = system.spawn_group(leaf, 100);
  system.run_rounds(3);
  const std::vector<net::EventId> events = {system.publish(leaves[0]),
                                            system.publish(mids[5])};
  for (int step = 0; step < 8; ++step) {
    for (const net::EventId& event : events) {
      const auto delivered = system.delivered_set(event);
      std::vector<ProcessId> scanned;
      for (std::uint32_t p = 0; p < system.process_count(); ++p) {
        if (system.node(ProcessId{p}).has_seen(event)) {
          scanned.push_back(ProcessId{p});
        }
      }
      const std::vector<ProcessId> iterated(delivered.begin(), delivered.end());
      EXPECT_EQ(iterated, scanned) << "step " << step;
      EXPECT_EQ(delivered.size(), scanned.size());
      EXPECT_EQ(delivered.empty(), scanned.empty());
    }
    system.run_rounds(2);
  }
  EXPECT_GT(system.delivered_set(events[0]).size(), 50u);
}

TEST(SeenColumns, DeliveryRatioCountsTheMembersAtPublish) {
  // The reliability denominator is the interested membership when the
  // event was published: a later joiner neither lowers the ratio while it
  // lacks the event nor counts once a late copy reaches it.
  topics::TopicDag hierarchy;
  topics::intern_path(hierarchy, ".");  // the root group's topic
  DamSystem system(hierarchy, lossless(41, 0));
  const auto members = system.spawn_group(topics::kRootTopic, 50);
  system.run_rounds(3);
  const auto event = system.publish(members[0]);
  system.run_rounds(30);
  // Gossip may miss a member even without loss; hand it the event.
  for (const ProcessId p : members) {
    if (system.delivered_set(event).contains(p)) continue;
    system.node(p).on_message(
        event_copy(event, members[0], p, topics::kRootTopic));
  }
  ASSERT_EQ(system.delivered_set(event).size(), members.size());
  EXPECT_EQ(system.delivery_ratio(event), 1.0);

  const ProcessId joiner = system.spawn(topics::kRootTopic);
  EXPECT_FALSE(system.delivered_set(event).contains(joiner));
  EXPECT_EQ(system.delivery_ratio(event), 1.0);

  system.node(joiner).on_message(
      event_copy(event, members[1], joiner, topics::kRootTopic));
  EXPECT_TRUE(system.delivered_set(event).contains(joiner));
  EXPECT_EQ(system.delivery_ratio(event), 1.0);
}

TEST(SeenColumns, DeliveryRatioMatchesThePublishTimeSnapshot) {
  // Across a three-level chain, with joiners landing in interested groups
  // mid-wave, the ratio equals the one over the interested set as it stood
  // at publish.
  auto hierarchy = std::make_unique<topics::TopicDag>();
  const auto leaf = topics::intern_path(*hierarchy, ".a.b");
  const auto mid = *hierarchy->find(".a");
  DamSystem::Config config = lossless(43, 0);
  config.node.params.psucc = 0.8;  // lossy: partial sets mid-wave
  DamSystem system(*hierarchy, config);
  system.spawn_group(topics::kRootTopic, 20);
  system.spawn_group(mid, 30);
  const auto leaves = system.spawn_group(leaf, 40);
  system.run_rounds(3);
  const auto event = system.publish(leaves[0]);
  // The processes interested at publish: the chain groups' members.
  std::vector<ProcessId> interested;
  for (const topics::TopicId topic : hierarchy->chain_to_root(leaf)) {
    const auto& members = system.registry().group(topic);
    interested.insert(interested.end(), members.begin(), members.end());
  }
  for (int step = 0; step < 10; ++step) {
    const auto delivered = system.delivered_set(event);
    std::size_t hits = 0;
    for (const ProcessId p : interested) hits += delivered.contains(p);
    EXPECT_EQ(system.delivery_ratio(event),
              static_cast<double>(hits) /
                  static_cast<double>(interested.size()))
        << "step " << step;
    system.spawn(step % 2 == 0 ? mid : topics::kRootTopic);
    system.run_rounds(1);
  }
  EXPECT_GT(system.delivered_set(event).size(), interested.size() / 2);
}

}  // namespace
}  // namespace dam::core

// Property tests for the invariants listed in DESIGN.md §7, swept over
// seeds and hierarchy shapes with parameterized gtest — plus the
// sustained-service GC invariants (seen-column release, redelivery guard,
// event retirement).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "core/system.hpp"
#include "topics/hierarchy.hpp"

namespace dam::core {
namespace {

struct Shape {
  const char* name;
  // (topic path, subscriber count) pairs; paths are added in order.
  std::vector<std::pair<const char*, std::size_t>> groups;
  const char* publish_topic;
};

const Shape kShapes[] = {
    {"linear",
     {{".", 6}, {".a", 12}, {".a.b", 24}},
     ".a.b"},
    {"wide",
     {{".", 5}, {".news", 10}, {".news.eu", 15}, {".news.us", 15},
      {".sports", 10}},
     ".news.eu"},
    {"deep",
     {{".", 4}, {".a", 6}, {".a.b", 8}, {".a.b.c", 10}, {".a.b.c.d", 14}},
     ".a.b.c.d"},
    {"gap",  // nobody subscribed at .a.b — supergroup search must skip it
     {{".", 6}, {".a", 10}, {".a.b.c", 20}},
     ".a.b.c"},
};

class InvariantTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
 protected:
  const Shape& shape() const { return kShapes[std::get<0>(GetParam())]; }
  std::uint64_t seed() const { return std::get<1>(GetParam()); }
};

// Runs one publication through `shape` on lossless channels, checks the
// routing and memory invariants, and returns the event's delivery ratio.
double run_core_invariants(const Shape& shape, std::uint64_t seed) {
  topics::TopicHierarchy hierarchy;
  DamSystem::Config config;
  config.seed = seed;
  config.auto_wire_super_tables = true;
  // The invariants under test are about routing, not loss tolerance;
  // lossless channels make the delivery check sharp.
  config.node.params.psucc = 1.0;
  DamSystem system(hierarchy, config);

  std::vector<topics::TopicId> topic_ids;
  std::vector<ProcessId> publishers;
  for (const auto& [path, count] : shape.groups) {
    const auto id = hierarchy.add(path);
    topic_ids.push_back(id);
    const auto members = system.spawn_group(id, count);
    if (std::string(path) == shape.publish_topic) {
      publishers = members;
    }
  }
  EXPECT_FALSE(publishers.empty());
  if (publishers.empty()) return 0.0;

  system.run_rounds(3);
  const auto event = system.publish(publishers[0]);
  system.run_rounds(30);

  // Invariant 1: no parasite deliveries, ever.
  EXPECT_EQ(system.metrics().parasite_deliveries(), 0u);

  // Invariant 1b: concretely, every delivered process is interested.
  const auto publish_topic = *hierarchy.find(shape.publish_topic);
  for (ProcessId p : system.delivered_set(event)) {
    EXPECT_TRUE(system.registry().interested_in(p, publish_topic))
        << "process " << p.value << " got a parasite event";
  }

  // Invariant 2: memory bounds — topic table <= (b+1)ln(S)+1, sTable <= z.
  for (std::uint32_t p = 0; p < system.process_count(); ++p) {
    const auto& node = system.node(ProcessId{p});
    const std::size_t group_size =
        system.registry().group_size(node.topic());
    EXPECT_LE(node.group_membership().view().size(),
              node.config().params.view_capacity(group_size) + 1);
    EXPECT_LE(node.super_table().size(), node.config().params.z);
  }

  // Invariant 3: bottom-up monotonicity — intergroup counters only appear
  // on non-root groups, and the root group never sends upward.
  EXPECT_EQ(system.metrics().group(topics::kRootTopic).inter_sent, 0u);

  // Invariant 4: duplicate suppression — every duplicate was counted, not
  // re-forwarded; deliveries never exceed the interested population.
  EXPECT_LE(system.delivered_set(event).size(),
            system.registry().interested_set(publish_topic).size());

  return system.delivery_ratio(event);
}

TEST_P(InvariantTest, CoreInvariantsHoldEndToEnd) {
  (void)run_core_invariants(shape(), seed());
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndSeeds, InvariantTest,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(1u, 2u, 3u, 17u, 99u)),
    [](const auto& info) {
      return std::string(kShapes[std::get<0>(info.param)].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Reliability: with auto-wired tables and no failures, an event should
// reach more than 95% of the interested processes. That is a per-seed
// gossip outcome, not a guarantee, so it is asserted as a rate over 300
// seeds per shape: each bound sits four binomial standard deviations below
// the rate measured before and after mid-run joins became O(view) (the
// two agree seed for seed), and the invariants above run on every seed.
class InvariantRateTest : public ::testing::TestWithParam<int> {};

TEST_P(InvariantRateTest, DeliveryRatioAbove95PercentOnAlmostEverySeed) {
  // Measured: linear 285, wide 284, deep 288, gap 285 of 300.
  constexpr int kBound[] = {269, 268, 274, 269};
  const Shape& shape = kShapes[GetParam()];
  int reliable = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    reliable += run_core_invariants(shape, seed) > 0.95 ? 1 : 0;
  }
  EXPECT_GE(reliable, kBound[GetParam()]) << reliable << " of 300 seeds";
}

INSTANTIATE_TEST_SUITE_P(Shapes, InvariantRateTest, ::testing::Range(0, 4),
                         [](const auto& info) {
                           return std::string(kShapes[info.param].name);
                         });

// Sibling isolation: an event in one branch never reaches another branch's
// exclusive subscribers, under any seed. Runs the two-branch tree with one
// event published in .news.eu, checks isolation and zero parasites, and
// returns whether the event reached every interested process (.news.eu,
// .news and the root).
bool run_sibling_branches(std::uint64_t seed) {
  topics::TopicHierarchy hierarchy;
  const auto eu = hierarchy.add(".news.eu");
  const auto us = hierarchy.add(".news.us");
  const auto news = *hierarchy.find(".news");

  DamSystem::Config config;
  config.seed = seed;
  config.auto_wire_super_tables = true;
  config.node.params.psucc = 1.0;
  DamSystem system(hierarchy, config);
  system.spawn_group(topics::kRootTopic, 4);
  system.spawn_group(news, 10);
  const auto eu_subs = system.spawn_group(eu, 12);
  const auto us_subs = system.spawn_group(us, 12);

  system.run_rounds(3);
  const auto event = system.publish(eu_subs[0]);
  system.run_rounds(25);

  for (ProcessId us_sub : us_subs) {
    EXPECT_FALSE(system.delivered_set(event).contains(us_sub));
  }
  EXPECT_EQ(system.metrics().parasite_deliveries(), 0u);
  return system.all_delivered(event);
}

class SiblingIsolationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SiblingIsolationTest, EventsStayInTheirBranch) {
  (void)run_sibling_branches(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SiblingIsolationTest,
                         ::testing::Values(1u, 7u, 23u, 51u, 111u));

// ... while the event still reaches .news and the root. After only three
// warm-up rounds that is a per-seed gossip outcome, not a guarantee, so it
// is asserted as a rate over 400 seeds: the bound sits four binomial
// standard deviations below the rate measured on two table-sampling
// streams (384 and 381 of 400), and isolation is checked on every seed.
TEST(SiblingIsolationRate, EventReachesNewsAndRootOnAlmostEverySeed) {
  int reached = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    reached += run_sibling_branches(seed) ? 1 : 0;
  }
  EXPECT_GE(reached, 363) << reached << " of 400 seeds";
}

// The degenerate single-topic case must impose zero overhead relative to
// plain gossip: exactly no intergroup or bootstrap traffic.
class DegenerateCaseTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DegenerateCaseTest, SingleTopicHasNoHierarchyOverhead) {
  topics::TopicHierarchy hierarchy;
  DamSystem::Config config;
  config.seed = GetParam();
  config.auto_wire_super_tables = true;
  DamSystem system(hierarchy, config);
  const auto members = system.spawn_group(topics::kRootTopic, 40);
  system.run_rounds(5);
  const auto event = system.publish(members[0]);
  system.run_rounds(20);
  const auto& counters = system.metrics().group(topics::kRootTopic);
  EXPECT_EQ(counters.inter_sent, 0u);
  EXPECT_GT(counters.intra_sent, 0u);
  for (ProcessId member : members) {
    EXPECT_TRUE(system.node(member).super_table().empty());
    EXPECT_FALSE(system.node(member).bootstrap().active());
  }
  EXPECT_GT(system.delivery_ratio(event), 0.9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DegenerateCaseTest,
                         ::testing::Values(2u, 13u, 77u));

// --- Sustained-service GC invariants (seen-column release + guards). -----

// GC correctness guard, end to end: a seen horizon with events retired at
// their deadline never causes a live redelivery, never costs reliability,
// and keeps the open seen columns at the window's publications — while the
// GC-off twin of the same run retains a column per publication.
class SeenGcGuardTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeenGcGuardTest, CoveringHorizonNeverRedeliversAndBoundsSeenColumns) {
  constexpr std::size_t kHorizon = 24;       // >> the ~10-round spread
  constexpr int kEvents = 12;
  constexpr sim::Round kGapRounds = 8;       // publish cadence
  constexpr sim::Round kDeadline = 16;       // graded, then retired
  // 42 processes: one 8-byte word per column.
  constexpr std::size_t kColumnBytes = sizeof(std::uint64_t);
  // A column lives max(deadline, horizon) rounds after its publish, so at
  // most ceil(kHorizon / kGapRounds) + 1 are open at once.
  constexpr std::size_t kWindowEvents = kHorizon / kGapRounds + 1;
  const auto run_once = [&](std::size_t gc_horizon) {
    auto hierarchy = std::make_unique<topics::TopicHierarchy>();
    const auto leaf = hierarchy->add(".a.b");
    const auto mid = *hierarchy->find(".a");
    DamSystem::Config config;
    config.seed = GetParam();
    config.auto_wire_super_tables = true;
    config.node.params.psucc = 1.0;
    config.node.seen_gc_horizon = gc_horizon;
    auto system = std::make_unique<DamSystem>(*hierarchy, config);
    system->spawn_group(topics::kRootTopic, 6);
    system->spawn_group(mid, 12);
    const auto leaves = system->spawn_group(leaf, 24);
    system->run_rounds(3);
    std::vector<std::pair<net::EventId, sim::Round>> live;
    std::size_t open_peak = 0;
    const auto retire_due = [&] {
      while (!live.empty() &&
             live.front().second + kDeadline <= system->now()) {
        // The guard: full reliability at the deadline, then retirement.
        EXPECT_GT(system->delivery_ratio(live.front().first), 0.95);
        system->retire_event(live.front().first);
        live.erase(live.begin());
      }
      open_peak = std::max(
          open_peak, system->bookkeeping_gauges().seen_bytes / kColumnBytes);
    };
    for (int i = 0; i < kEvents; ++i) {
      live.emplace_back(system->publish(leaves[i % leaves.size()]),
                        system->now());
      for (sim::Round r = 0; r < kGapRounds; ++r) {
        system->run_rounds(1);
        retire_due();
      }
    }
    for (int r = 0; r < 30; ++r) {
      system->run_rounds(1);
      retire_due();
    }
    EXPECT_TRUE(live.empty());
    // Zero live redeliveries, no parasites.
    EXPECT_EQ(system->redeliveries(), 0u);
    EXPECT_EQ(system->metrics().parasite_deliveries(), 0u);
    return std::make_tuple(std::move(hierarchy), std::move(system), open_peak);
  };

  const auto [h_on, gc_on, open_on] = run_once(kHorizon);
  const auto [h_off, gc_off, open_off] = run_once(0);
  EXPECT_LE(open_on, kWindowEvents);
  EXPECT_EQ(gc_on->bookkeeping_gauges().seen_bytes, 0u);
  EXPECT_EQ(open_off, static_cast<std::size_t>(kEvents));
  EXPECT_EQ(gc_off->bookkeeping_gauges().seen_bytes, kEvents * kColumnBytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeenGcGuardTest,
                         ::testing::Values(3u, 29u, 64u));

TEST(SeenColumnGc, RetiredEventsNeverTouchLiveCounters) {
  // Retire an event while copies are still in flight: the stragglers must
  // land as retired_deliveries (harmless duplicate traffic), never as live
  // deliveries or redeliveries — harvested aggregates stay frozen.
  topics::TopicHierarchy hierarchy;
  DamSystem::Config config;
  config.seed = 11;
  config.auto_wire_super_tables = true;
  config.node.params.psucc = 1.0;
  DamSystem system(hierarchy, config);
  const auto members = system.spawn_group(topics::kRootTopic, 40);
  system.run_rounds(3);
  const auto event = system.publish(members[0]);
  system.run_rounds(1);  // the wave is mid-flight
  const std::size_t live_before = system.delivered_set(event).size();
  EXPECT_GT(live_before, 0u);  // at least the publisher's self-delivery
  system.retire_event(event);
  EXPECT_TRUE(system.delivered_set(event).empty());
  system.run_rounds(25);
  // The stragglers arrived but the retired event's books never reopened.
  EXPECT_TRUE(system.delivered_set(event).empty());
  EXPECT_GT(system.retired_deliveries(), 0u);
  EXPECT_EQ(system.redeliveries(), 0u);
  EXPECT_EQ(system.metrics().parasite_deliveries(), 0u);
}

}  // namespace
}  // namespace dam::core

// exp/grid: spec parsing, cartesian expansion, and scenario application.
#include "exp/grid.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace dam::exp {
namespace {

TEST(GridParse, EmptySpecHasNoAxes) {
  EXPECT_TRUE(parse_grid("").empty());
  EXPECT_TRUE(parse_grid("   \t ").empty());
}

TEST(GridParse, ListAndRangeItems) {
  const auto axes = parse_grid("g=5,10,20 a=1:3");
  ASSERT_EQ(axes.size(), 2u);
  EXPECT_EQ(axes[0].key, "g");
  EXPECT_EQ(axes[0].values, (std::vector<double>{5, 10, 20}));
  EXPECT_EQ(axes[1].key, "a");
  EXPECT_EQ(axes[1].values, (std::vector<double>{1, 2, 3}));
}

TEST(GridParse, RangeWithExplicitStepKeepsEndpoint) {
  const auto axes = parse_grid("psucc=0.5:0.9:0.2");
  ASSERT_EQ(axes.size(), 1u);
  ASSERT_EQ(axes[0].values.size(), 3u);
  EXPECT_DOUBLE_EQ(axes[0].values[0], 0.5);
  EXPECT_DOUBLE_EQ(axes[0].values[1], 0.7);
  EXPECT_DOUBLE_EQ(axes[0].values[2], 0.9);
}

TEST(GridParse, MixedListAndRange) {
  const auto axes = parse_grid("z=1,3:5,8");
  ASSERT_EQ(axes.size(), 1u);
  EXPECT_EQ(axes[0].values, (std::vector<double>{1, 3, 4, 5, 8}));
}

TEST(GridParse, SemicolonSeparatesAxesToo) {
  const auto axes = parse_grid("a=1;g=2");
  ASSERT_EQ(axes.size(), 2u);
}

TEST(GridParse, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_grid("a"), std::invalid_argument);        // no '='
  EXPECT_THROW(parse_grid("a="), std::invalid_argument);       // no values
  EXPECT_THROW(parse_grid("=3"), std::invalid_argument);       // no key
  EXPECT_THROW(parse_grid("a=x"), std::invalid_argument);      // not a number
  EXPECT_THROW(parse_grid("a=1,"), std::invalid_argument);     // trailing comma
  EXPECT_THROW(parse_grid("a=3:1"), std::invalid_argument);    // hi < lo
  EXPECT_THROW(parse_grid("a=1:4:0"), std::invalid_argument);  // step 0
  EXPECT_THROW(parse_grid("wat=1"), std::invalid_argument);    // unknown key
  EXPECT_THROW(parse_grid("a=1 a=2"), std::invalid_argument);  // repeated key
  // Non-finite values would slip past every later `value < bound` check.
  EXPECT_THROW(parse_grid("alive=nan"), std::invalid_argument);
  EXPECT_THROW(parse_grid("runs=inf"), std::invalid_argument);
}

TEST(GridExpand, EmptyGridIsTheSingleEmptyPoint) {
  const auto points = expand_grid({});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points[0].empty());
  EXPECT_EQ(grid_label(points[0]), "");
}

TEST(GridExpand, SinglePoint) {
  const auto points = expand_grid(parse_grid("a=2"));
  ASSERT_EQ(points.size(), 1u);
  ASSERT_EQ(points[0].size(), 1u);
  EXPECT_EQ(points[0][0].first, "a");
  EXPECT_DOUBLE_EQ(points[0][0].second, 2.0);
  EXPECT_EQ(grid_label(points[0]), "a=2");
}

TEST(GridExpand, CartesianProductLastAxisFastest) {
  const auto points = expand_grid(parse_grid("a=1,2 g=5,10,20"));
  ASSERT_EQ(points.size(), 6u);
  // Declaration order (a, g) with g varying fastest.
  EXPECT_EQ(grid_label(points[0]), "a=1 g=5");
  EXPECT_EQ(grid_label(points[1]), "a=1 g=10");
  EXPECT_EQ(grid_label(points[2]), "a=1 g=20");
  EXPECT_EQ(grid_label(points[3]), "a=2 g=5");
  EXPECT_EQ(grid_label(points[5]), "a=2 g=20");
}

TEST(GridApply, ParamKeysHitEveryTopicParamsEntry) {
  sim::Scenario scenario =
      sim::make_linear_scenario("grid", "grid", {10, 100});
  scenario.params = {core::TopicParams{}, core::TopicParams{}};
  apply_grid_point(scenario, {{"g", 10.0}, {"z", 5.0}});
  for (const core::TopicParams& params : scenario.params) {
    EXPECT_DOUBLE_EQ(params.g, 10.0);
    EXPECT_EQ(params.z, 5u);
  }
}

TEST(GridApply, AliveScaleAndRuns) {
  sim::Scenario scenario =
      sim::make_linear_scenario("grid", "grid", {10, 100});
  scenario.alive_sweep = {0.0, 0.5, 1.0};
  apply_grid_point(scenario, {{"alive", 0.7}, {"scale", 2.5}, {"runs", 9.0}});
  EXPECT_EQ(scenario.alive_sweep, (std::vector<double>{0.7}));
  EXPECT_EQ(scenario.group_sizes, (std::vector<std::size_t>{25, 250}));
  EXPECT_EQ(scenario.runs, 9);
}

TEST(GridApply, ScaleNeverDropsAGroupToZero) {
  sim::Scenario scenario = sim::make_linear_scenario("grid", "grid", {2, 10});
  apply_grid_point(scenario, {{"scale", 0.1}});
  EXPECT_EQ(scenario.group_sizes, (std::vector<std::size_t>{1, 1}));
}

TEST(GridApply, RaisingAAboveZGrowsTheTable) {
  sim::Scenario scenario = sim::make_linear_scenario("grid", "grid", {10});
  apply_grid_point(scenario, {{"a", 4.0}});  // default z = 3
  EXPECT_DOUBLE_EQ(scenario.params[0].a, 4.0);
  EXPECT_EQ(scenario.params[0].z, 4u);
  // Explicit z later in the same point still wins.
  sim::Scenario other = sim::make_linear_scenario("grid", "grid", {10});
  apply_grid_point(other, {{"a", 4.0}, {"z", 8.0}});
  EXPECT_EQ(other.params[0].z, 8u);
}

TEST(GridApply, FaninRebuildsAMultiParentDag) {
  sim::Scenario scenario =
      sim::make_linear_scenario("grid", "grid", {10, 100, 1000});
  apply_grid_point(scenario, {{"fanin", 3.0}});
  // One bottom topic B under 3 disjoint parents, bottom size kept,
  // parents a tenth of it (floor 10).
  ASSERT_EQ(scenario.topic_names.size(), 4u);
  EXPECT_EQ(scenario.topic_names[3], "B");
  EXPECT_EQ(scenario.group_sizes,
            (std::vector<std::size_t>{100, 100, 100, 1000}));
  EXPECT_EQ(scenario.publish_topic, 3u);
  ASSERT_EQ(scenario.super_edges.size(), 3u);
  for (std::uint32_t p = 0; p < 3; ++p) {
    EXPECT_EQ(scenario.super_edges[p],
              (std::pair<std::uint32_t, std::uint32_t>{3, p}));
  }
  // The rebuilt shape must be a valid DAG the frozen engine accepts.
  const topics::TopicDag dag = scenario.build_dag();
  EXPECT_EQ(dag.size(), 4u);
}

TEST(GridApply, FaninOneIsASingleParentAndSmallBottomsFloorAtTen) {
  sim::Scenario scenario = sim::make_linear_scenario("grid", "grid", {30});
  apply_grid_point(scenario, {{"fanin", 1.0}});
  EXPECT_EQ(scenario.group_sizes, (std::vector<std::size_t>{10, 30}));
  EXPECT_EQ(scenario.super_edges.size(), 1u);
}

TEST(GridApply, RateSetsTheArrivalRate) {
  sim::Scenario scenario = sim::make_linear_scenario("grid", "grid", {10});
  scenario.engine = sim::EngineKind::kDynamic;
  apply_grid_point(scenario, {{"rate", 0.4}});
  EXPECT_DOUBLE_EQ(scenario.workload.arrival.rate, 0.4);
  // Arrival kind is untouched: rate feeds kPoisson and the kFlashcrowd
  // background alike.
  EXPECT_EQ(scenario.workload.arrival.kind, workload::ArrivalKind::kPoisson);
  scenario.workload.arrival.kind = workload::ArrivalKind::kFlashcrowd;
  apply_grid_point(scenario, {{"rate", 0.2}});
  EXPECT_EQ(scenario.workload.arrival.kind,
            workload::ArrivalKind::kFlashcrowd);
  EXPECT_THROW(apply_grid_point(scenario, {{"rate", -0.1}}),
               std::invalid_argument);
  EXPECT_THROW(apply_grid_point(scenario, {{"rate", 65.0}}),
               std::invalid_argument);
}

TEST(GridApply, RateSwitchesScheduledArrivalsToPoisson) {
  // kScheduled never reads the rate; a rate sweep over it would run N
  // bit-identical cells labeled as different rates.
  sim::Scenario scenario = sim::make_linear_scenario("grid", "grid", {10});
  scenario.engine = sim::EngineKind::kDynamic;
  scenario.workload.arrival.kind = workload::ArrivalKind::kScheduled;
  apply_grid_point(scenario, {{"rate", 0.3}});
  EXPECT_EQ(scenario.workload.arrival.kind, workload::ArrivalKind::kPoisson);
  EXPECT_DOUBLE_EQ(scenario.workload.arrival.rate, 0.3);
}

TEST(GridApply, AxesRejectEnginesThatNeverReadThem) {
  // The frozen engine has no traffic stream and runs no table
  // maintenance, and the steady baselines read no protocol knob but psucc
  // (and c, for flat gossip): these axes would be dead state, sweeping
  // identical cells under different labels.
  sim::Scenario scenario = sim::make_linear_scenario("grid", "grid", {10});
  ASSERT_EQ(scenario.engine, sim::EngineKind::kFrozen);
  EXPECT_THROW(apply_grid_point(scenario, {{"rate", 0.5}}),
               std::invalid_argument);
  EXPECT_THROW(apply_grid_point(scenario, {{"zipf_s", 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(apply_grid_point(scenario, {{"tau", 1.0}}),
               std::invalid_argument);
  for (const char* name : {"steady-tree", "steady-gossip"}) {
    sim::Scenario baseline = *sim::find_scenario(name);
    for (const char* key : {"a", "b", "g", "z", "tau"}) {
      EXPECT_THROW(apply_grid_point(baseline, {{key, 2.0}}),
                   std::invalid_argument)
          << name << ' ' << key;
    }
    EXPECT_NO_THROW(apply_grid_point(baseline, {{"psucc", 0.5}})) << name;
  }
  sim::Scenario tree = *sim::find_scenario("steady-tree");
  EXPECT_THROW(apply_grid_point(tree, {{"c", 2.0}}), std::invalid_argument);
  sim::Scenario gossip = *sim::find_scenario("steady-gossip");
  EXPECT_NO_THROW(apply_grid_point(gossip, {{"c", 2.0}}));
}

TEST(GridApply, FrozenBaselinesRejectTheKnobsTheyNeverRead) {
  // Broadcast and multicast gossip in one flat frozen group: (b+1)·ln S
  // views, ln S + c fanout, no intergroup leg. Hierarchical reads c as
  // both fanout constants and psucc, nothing else. The other knobs would
  // run identical cells under different labels.
  const std::pair<const char*, std::vector<const char*>> reads[] = {
      {"sec6e-broadcast", {"b", "c", "psucc"}},
      {"sec6e-multicast", {"b", "c", "psucc"}},
      {"sec6e-hierarchical", {"c", "psucc"}}};
  for (const auto& [name, keys] : reads) {
    for (const char* key : {"a", "b", "c", "g", "psucc", "tau", "z"}) {
      sim::Scenario baseline = *sim::find_scenario(name);
      bool read = false;
      for (const char* k : keys) read = read || std::string(k) == key;
      if (read) {
        EXPECT_NO_THROW(apply_grid_point(baseline, {{key, 0.5}}))
            << name << ' ' << key;
      } else {
        EXPECT_THROW(apply_grid_point(baseline, {{key, 2.0}}),
                     std::invalid_argument)
            << name << ' ' << key;
      }
    }
    // The frozen baselines have no stream either.
    sim::Scenario baseline = *sim::find_scenario(name);
    EXPECT_THROW(apply_grid_point(baseline, {{"rate", 0.5}}),
                 std::invalid_argument)
        << name;
  }
}

TEST(GridApply, ZipfSSetsExponentAndSwitchesToZipfPopularity) {
  sim::Scenario scenario = sim::make_linear_scenario("grid", "grid", {10});
  scenario.engine = sim::EngineKind::kDynamic;
  ASSERT_EQ(scenario.workload.popularity.kind,
            workload::PopularityKind::kSingle);
  apply_grid_point(scenario, {{"zipf_s", 1.5}});
  EXPECT_DOUBLE_EQ(scenario.workload.popularity.zipf_s, 1.5);
  // The exponent is dead state under kSingle/kUniform; the axis switches
  // the model so the sweep actually sweeps (s = 0 degenerates to uniform).
  EXPECT_EQ(scenario.workload.popularity.kind,
            workload::PopularityKind::kZipf);
  EXPECT_THROW(apply_grid_point(scenario, {{"zipf_s", -0.5}}),
               std::invalid_argument);
  EXPECT_THROW(apply_grid_point(scenario, {{"zipf_s", 17.0}}),
               std::invalid_argument);
}

TEST(GridParse, WorkloadAxesAreKnownKeys) {
  const auto axes = parse_grid("rate=0.1:0.3:0.1 zipf_s=0,1,2");
  ASSERT_EQ(axes.size(), 2u);
  EXPECT_EQ(axes[0].key, "rate");
  EXPECT_EQ(axes[1].key, "zipf_s");
  EXPECT_EQ(axes[1].values, (std::vector<double>{0, 1, 2}));
}

TEST(GridApply, ChurnFractionsSetTheChurnTrace) {
  sim::Scenario scenario = sim::make_linear_scenario("grid", "grid", {10});
  scenario.engine = sim::EngineKind::kDynamic;
  apply_grid_point(scenario, {{"crash_frac", 0.25}, {"leave_frac", 0.1}});
  EXPECT_DOUBLE_EQ(scenario.workload.churn.crash_fraction, 0.25);
  EXPECT_DOUBLE_EQ(scenario.workload.churn.leave_fraction, 0.1);
  // Fractions are probabilities; the traffic generator validates [0, 1]
  // too, but the grid must fail fast with the axis name in the message.
  EXPECT_THROW(apply_grid_point(scenario, {{"crash_frac", 1.5}}),
               std::invalid_argument);
  EXPECT_THROW(apply_grid_point(scenario, {{"leave_frac", -0.1}}),
               std::invalid_argument);
}

TEST(GridApply, JoinFracResolvesAgainstTheInitialPopulation) {
  sim::Scenario scenario =
      sim::make_linear_scenario("grid", "grid", {10, 100, 1000});
  scenario.engine = sim::EngineKind::kDynamic;
  apply_grid_point(scenario, {{"join_frac", 0.2}});
  EXPECT_EQ(scenario.workload.churn.joins, 222u);  // 0.2 * 1110
  // Declaration order matters: scaling first doubles the join count too.
  sim::Scenario scaled =
      sim::make_linear_scenario("grid", "grid", {10, 100, 1000});
  scaled.engine = sim::EngineKind::kDynamic;
  apply_grid_point(scaled, {{"scale", 2.0}, {"join_frac", 0.2}});
  EXPECT_EQ(scaled.workload.churn.joins, 444u);
  EXPECT_THROW(apply_grid_point(scenario, {{"join_frac", 1.01}}),
               std::invalid_argument);
}

TEST(GridApply, ChurnAxesRejectFrozenScenarios) {
  // Frozen scenarios model outages through the alive sweep, not a churn
  // stream; a churn axis there would sweep N bit-identical cells.
  sim::Scenario scenario = sim::make_linear_scenario("grid", "grid", {10});
  ASSERT_EQ(scenario.engine, sim::EngineKind::kFrozen);
  EXPECT_THROW(apply_grid_point(scenario, {{"crash_frac", 0.2}}),
               std::invalid_argument);
  EXPECT_THROW(apply_grid_point(scenario, {{"leave_frac", 0.2}}),
               std::invalid_argument);
  EXPECT_THROW(apply_grid_point(scenario, {{"join_frac", 0.2}}),
               std::invalid_argument);
}

TEST(GridParse, ChurnAxesAreKnownKeys) {
  const auto axes = parse_grid("crash_frac=0:0.4:0.2 leave_frac=0.1 "
                               "join_frac=0,0.5");
  ASSERT_EQ(axes.size(), 3u);
  EXPECT_EQ(axes[0].key, "crash_frac");
  EXPECT_EQ(axes[0].values, (std::vector<double>{0.0, 0.2, 0.4}));
  EXPECT_EQ(axes[1].key, "leave_frac");
  EXPECT_EQ(axes[2].key, "join_frac");
}

TEST(GridApply, FaninRejectsOutOfDomain) {
  sim::Scenario scenario = sim::make_linear_scenario("grid", "grid", {10});
  EXPECT_THROW(apply_grid_point(scenario, {{"fanin", 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(apply_grid_point(scenario, {{"fanin", 65.0}}),
               std::invalid_argument);
}

TEST(GridApply, DepthRebuildsALinearHierarchy) {
  sim::Scenario scenario =
      sim::make_linear_scenario("grid", "grid", {10, 100, 1000});
  apply_grid_point(scenario, {{"depth", 5.0}});
  // Bottom (publish) size kept, 10x shrink per level up, floored at 10.
  EXPECT_EQ(scenario.group_sizes,
            (std::vector<std::size_t>{10, 10, 10, 100, 1000}));
  EXPECT_EQ(scenario.topic_names.size(), 5u);
  EXPECT_EQ(scenario.publish_topic, 4u);
  ASSERT_EQ(scenario.super_edges.size(), 4u);
  for (std::uint32_t level = 1; level < 5; ++level) {
    EXPECT_EQ(scenario.super_edges[level - 1],
              (std::pair<std::uint32_t, std::uint32_t>{level, level - 1}));
  }
  // depth=1 collapses to a single (root) group.
  apply_grid_point(scenario, {{"depth", 1.0}});
  EXPECT_EQ(scenario.group_sizes, (std::vector<std::size_t>{1000}));
  EXPECT_TRUE(scenario.super_edges.empty());
  EXPECT_EQ(scenario.publish_topic, 0u);
}

TEST(GridApply, DepthComposesWithScaleInDeclarationOrder) {
  sim::Scenario scenario =
      sim::make_linear_scenario("grid", "grid", {10, 1000});
  apply_grid_point(scenario, {{"depth", 3.0}, {"scale", 10.0}});
  EXPECT_EQ(scenario.group_sizes,
            (std::vector<std::size_t>{100, 1000, 10000}));
  // bootstrap-cold's grid "depth=2:5 scale=1,3": a 10-sized bottom
  // rebuilds to all-10 levels, then scale=3 makes every level 30.
  const sim::Scenario* cold = sim::find_scenario("bootstrap-cold");
  ASSERT_NE(cold, nullptr);
  for (std::size_t levels = 2; levels <= 5; ++levels) {
    for (const std::size_t scale : {1u, 3u}) {
      sim::Scenario cell = *cold;
      apply_grid_point(cell, {{"depth", static_cast<double>(levels)},
                              {"scale", static_cast<double>(scale)}});
      EXPECT_EQ(cell.group_sizes,
                std::vector<std::size_t>(levels, 10 * scale))
          << "depth=" << levels << " scale=" << scale;
    }
  }
}

TEST(GridApply, RejectsOutOfDomainValues) {
  sim::Scenario scenario = sim::make_linear_scenario("grid", "grid", {10});
  EXPECT_THROW(apply_grid_point(scenario, {{"alive", 1.5}}),
               std::invalid_argument);
  EXPECT_THROW(apply_grid_point(scenario, {{"scale", -1.0}}),
               std::invalid_argument);
  EXPECT_THROW(apply_grid_point(scenario, {{"runs", 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(apply_grid_point(scenario, {{"depth", 0.0}}),
               std::invalid_argument);
  // Values that would wrap the narrowing casts must error, not truncate.
  EXPECT_THROW(apply_grid_point(scenario, {{"runs", 1e10}}),
               std::invalid_argument);
  EXPECT_THROW(apply_grid_point(scenario, {{"z", -5.0}}),
               std::invalid_argument);
  // TopicParams::validate rejects a g of zero.
  EXPECT_THROW(apply_grid_point(scenario, {{"g", 0.0}}),
               std::invalid_argument);
  // tau is a dynamic-engine axis, so its range check needs one.
  scenario.engine = sim::EngineKind::kDynamic;
  EXPECT_THROW(apply_grid_point(scenario, {{"tau", -1.0}}),
               std::invalid_argument);
}

TEST(GridExpand, RejectsOversizedCartesianProducts) {
  GridAxis big_a{"psucc", std::vector<double>(1000, 0.5)};
  GridAxis big_b{"g", std::vector<double>(1000, 5.0)};
  EXPECT_THROW(expand_grid({big_a, big_b}), std::invalid_argument);
}

}  // namespace
}  // namespace dam::exp

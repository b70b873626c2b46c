#include "topics/subscriptions.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace dam::topics {
namespace {

class SubscriptionsTest : public ::testing::Test {
 protected:
  SubscriptionsTest() : registry_(hierarchy_) {
    t1_ = topics::intern_path(hierarchy_, ".t1");
    t2_ = topics::intern_path(hierarchy_, ".t1.t2");
    side_ = topics::intern_path(hierarchy_, ".side");
  }

  TopicDag hierarchy_;
  SubscriptionRegistry registry_;
  TopicId t1_{}, t2_{}, side_{};
};

TEST_F(SubscriptionsTest, AddAssignsSequentialIds) {
  const ProcessId p0 = registry_.add_process(t1_);
  const ProcessId p1 = registry_.add_process(t2_);
  EXPECT_EQ(p0.value, 0u);
  EXPECT_EQ(p1.value, 1u);
  EXPECT_EQ(registry_.process_count(), 2u);
  EXPECT_EQ(registry_.topic_of(p0), t1_);
  EXPECT_EQ(registry_.topic_of(p1), t2_);
}

TEST_F(SubscriptionsTest, GroupsTrackMembership) {
  const ProcessId a = registry_.add_process(t1_);
  const ProcessId b = registry_.add_process(t1_);
  registry_.add_process(t2_);
  const auto& group = registry_.group(t1_);
  ASSERT_EQ(group.size(), 2u);
  EXPECT_EQ(group[0], a);
  EXPECT_EQ(group[1], b);
  EXPECT_EQ(registry_.group_size(t2_), 1u);
  EXPECT_EQ(registry_.group_size(side_), 0u);
  EXPECT_TRUE(registry_.group(kRootTopic).empty());
}

TEST_F(SubscriptionsTest, AddRejectsUnknownTopic) {
  EXPECT_THROW(registry_.add_process(TopicId{999}), std::out_of_range);
}

TEST_F(SubscriptionsTest, InterestedInFollowsInclusion) {
  const ProcessId root_sub = registry_.add_process(kRootTopic);
  const ProcessId t1_sub = registry_.add_process(t1_);
  const ProcessId t2_sub = registry_.add_process(t2_);
  const ProcessId side_sub = registry_.add_process(side_);

  // Event of t2: interesting to t2, t1 and root subscribers only.
  EXPECT_TRUE(registry_.interested_in(root_sub, t2_));
  EXPECT_TRUE(registry_.interested_in(t1_sub, t2_));
  EXPECT_TRUE(registry_.interested_in(t2_sub, t2_));
  EXPECT_FALSE(registry_.interested_in(side_sub, t2_));

  // Event of t1: NOT interesting to the t2 subscriber.
  EXPECT_FALSE(registry_.interested_in(t2_sub, t1_));
  EXPECT_TRUE(registry_.interested_in(t1_sub, t1_));
  EXPECT_TRUE(registry_.interested_in(root_sub, t1_));
}

TEST_F(SubscriptionsTest, ChainGroupsHoldTheInterestedProcesses) {
  // The processes interested in t2's events are the members of the groups
  // on t2's chain to the root — the side branch is not on it.
  const ProcessId root_sub = registry_.add_process(kRootTopic);
  const ProcessId t1_sub = registry_.add_process(t1_);
  const ProcessId t2_sub = registry_.add_process(t2_);
  registry_.add_process(side_);

  std::vector<ProcessId> set;
  for (const TopicId topic : hierarchy_.chain_to_root(t2_)) {
    const auto& members = registry_.group(topic);
    set.insert(set.end(), members.begin(), members.end());
  }
  ASSERT_EQ(set.size(), 3u);
  EXPECT_TRUE(std::find(set.begin(), set.end(), root_sub) != set.end());
  EXPECT_TRUE(std::find(set.begin(), set.end(), t1_sub) != set.end());
  EXPECT_TRUE(std::find(set.begin(), set.end(), t2_sub) != set.end());
}

TEST_F(SubscriptionsTest, NearestNonemptySupergroupSkipsEmptyLevels) {
  // Nobody subscribes to t1; t2's nearest non-empty supergroup should be
  // the root once someone subscribes there.
  registry_.add_process(t2_);
  EXPECT_FALSE(registry_.nearest_nonempty_supergroup(t2_).has_value());
  registry_.add_process(kRootTopic);
  auto super = registry_.nearest_nonempty_supergroup(t2_);
  ASSERT_TRUE(super.has_value());
  EXPECT_EQ(*super, kRootTopic);
  // Now someone joins t1 — it becomes the nearest.
  registry_.add_process(t1_);
  super = registry_.nearest_nonempty_supergroup(t2_);
  ASSERT_TRUE(super.has_value());
  EXPECT_EQ(*super, t1_);
}

TEST_F(SubscriptionsTest, NearestNonemptySupergroupOfRootIsNull) {
  registry_.add_process(kRootTopic);
  EXPECT_FALSE(registry_.nearest_nonempty_supergroup(kRootTopic).has_value());
}

TEST_F(SubscriptionsTest, TopicInternedAfterTheRegistryGetsAGroup) {
  // Groups are indexed by TopicId, and the hierarchy may grow after the
  // registry exists (PubSub interns topics lazily).
  const ProcessId early = registry_.add_process(t1_);
  const TopicId late = topics::intern_path(hierarchy_, ".late");
  const TopicId idle = topics::intern_path(hierarchy_, ".late.idle");
  EXPECT_TRUE(registry_.group(late).empty());
  const ProcessId a = registry_.add_process(late);
  const ProcessId b = registry_.add_process(late);
  ASSERT_EQ(registry_.group(late).size(), 2u);
  EXPECT_EQ(registry_.group(late)[0], a);
  EXPECT_EQ(registry_.group(late)[1], b);
  EXPECT_EQ(registry_.group(t1_), std::vector<ProcessId>{early});
  // Interned but never joined, and never interned at all: both empty.
  EXPECT_TRUE(registry_.group(idle).empty());
  EXPECT_EQ(registry_.group_size(TopicId{999}), 0u);
  EXPECT_EQ(registry_.nearest_nonempty_supergroup(idle), late);
}

}  // namespace
}  // namespace dam::topics

#include "core/tables.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "context_fixture.hpp"

namespace dam::core {
namespace {

const auto kAllAlive = [](ProcessId) { return true; };

/// merge() takes a span; braced contact lists go through a vector.
using Ids = std::vector<ProcessId>;

/// The table's owner and z (= 3, the default) come from a node context.
class SuperTopicTableTest : public testing::ContextTest {
 protected:
  [[nodiscard]] NodeContext owner(std::uint32_t self) {
    return context(ProcessId{self}, levels_[2]);
  }
};

TEST_F(SuperTopicTableTest, StartsEmpty) {
  SuperTopicTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_FALSE(table.super_topic().has_value());
}

TEST_F(SuperTopicTableTest, MergeFillsUpToCapacity) {
  const NodeContext c = owner(0);
  SuperTopicTable table;
  table.merge(c, TopicId{1}, Ids{ProcessId{1}, ProcessId{2}, ProcessId{3},
                              ProcessId{4}},
              kAllAlive);
  EXPECT_EQ(table.size(), 3u);
  ASSERT_TRUE(table.super_topic().has_value());
  EXPECT_EQ(*table.super_topic(), TopicId{1});
  EXPECT_TRUE(table.contains(ProcessId{1}));
  EXPECT_FALSE(table.contains(ProcessId{4}));  // over capacity
}

TEST_F(SuperTopicTableTest, MergeSkipsOwnerAndDuplicates) {
  const NodeContext c = owner(7);
  SuperTopicTable table;
  table.merge(c, TopicId{1}, Ids{ProcessId{7}, ProcessId{1}, ProcessId{1},
                              ProcessId{2}},
              kAllAlive);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_FALSE(table.contains(ProcessId{7}));
}

TEST_F(SuperTopicTableTest, MergeKeepsAliveFavoritesFirst) {
  const NodeContext c = owner(0);
  SuperTopicTable table;
  table.merge(c, TopicId{1}, Ids{ProcessId{1}, ProcessId{2}, ProcessId{3}},
              kAllAlive);
  // Entry 2 died; merging fresh contacts should keep 1 and 3, replace 2.
  const auto alive = [](ProcessId p) { return p != ProcessId{2}; };
  table.merge(c, TopicId{1}, Ids{ProcessId{8}, ProcessId{9}}, alive);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_TRUE(table.contains(ProcessId{1}));
  EXPECT_TRUE(table.contains(ProcessId{3}));
  EXPECT_TRUE(table.contains(ProcessId{8}));
  EXPECT_FALSE(table.contains(ProcessId{2}));
  EXPECT_FALSE(table.contains(ProcessId{9}));  // capacity reached
}

TEST_F(SuperTopicTableTest, MergeRetargetsOnDifferentTopic) {
  const NodeContext c = owner(0);
  SuperTopicTable table;
  table.merge(c, TopicId{1}, Ids{ProcessId{1}, ProcessId{2}}, kAllAlive);
  // New topic: previous entries belong to another group and are wiped.
  table.merge(c, TopicId{5}, Ids{ProcessId{10}}, kAllAlive);
  EXPECT_EQ(*table.super_topic(), TopicId{5});
  EXPECT_EQ(table.size(), 1u);
  EXPECT_FALSE(table.contains(ProcessId{1}));
  EXPECT_TRUE(table.contains(ProcessId{10}));
}

TEST_F(SuperTopicTableTest, MergeReplaceWipesSameTopic) {
  const NodeContext c = owner(0);
  SuperTopicTable table;
  table.merge(c, TopicId{1}, Ids{ProcessId{1}, ProcessId{2}}, kAllAlive);
  table.merge(c, TopicId{1}, Ids{ProcessId{9}}, kAllAlive, /*replace=*/true);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.contains(ProcessId{9}));
}

TEST_F(SuperTopicTableTest, CheckCountsAlive) {
  const NodeContext c = owner(0);
  SuperTopicTable table;
  table.merge(c, TopicId{1}, Ids{ProcessId{1}, ProcessId{2}, ProcessId{3}},
              kAllAlive);
  EXPECT_EQ(table.check(kAllAlive), 3u);
  EXPECT_EQ(table.check([](ProcessId p) { return p.value % 2 == 1; }), 2u);
  EXPECT_EQ(table.check([](ProcessId) { return false; }), 0u);
}

TEST_F(SuperTopicTableTest, DropFailedRemovesAndReports) {
  const NodeContext c = owner(0);
  SuperTopicTable table;
  table.merge(c, TopicId{1}, Ids{ProcessId{1}, ProcessId{2}, ProcessId{3}},
              kAllAlive);
  const auto dropped =
      table.drop_failed([](ProcessId p) { return p != ProcessId{2}; });
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_FALSE(table.contains(ProcessId{2}));
}

TEST_F(SuperTopicTableTest, ClearResetsTopic) {
  const NodeContext c = owner(0);
  SuperTopicTable table;
  table.merge(c, TopicId{1}, Ids{ProcessId{1}}, kAllAlive);
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_FALSE(table.super_topic().has_value());
}

TEST_F(SuperTopicTableTest, ConstantSizeInvariantUnderManyMerges) {
  // The paper's memory bound relies on |sTable| <= z always.
  const NodeContext c = owner(0);
  SuperTopicTable table;
  for (std::uint32_t round = 0; round < 50; ++round) {
    std::vector<ProcessId> fresh;
    for (std::uint32_t i = 0; i < 10; ++i) {
      fresh.push_back(ProcessId{round * 10 + i + 1});
    }
    table.merge(c, TopicId{1}, fresh, kAllAlive);
    EXPECT_LE(table.size(), 3u);
  }
}

}  // namespace
}  // namespace dam::core

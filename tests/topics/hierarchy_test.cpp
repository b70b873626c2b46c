#include "topics/dag.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dam::topics {
namespace {

std::vector<TopicId> chain(const TopicDag& dag, TopicId id) {
  const auto span = dag.chain_to_root(id);
  return {span.begin(), span.end()};
}

TEST(InternPath, InternsRootThenEachPrefix) {
  TopicDag dag;
  const TopicId deep = intern_path(dag, ".a.b.c");
  ASSERT_EQ(dag.size(), 4u);  // ".", ".a", ".a.b", ".a.b.c"
  EXPECT_EQ(dag.name(kRootTopic), ".");
  EXPECT_EQ(*dag.find(".a"), TopicId{1});
  EXPECT_EQ(*dag.find(".a.b"), TopicId{2});
  EXPECT_EQ(deep, TopicId{3});
  EXPECT_EQ(dag.depth(deep), 3u);
  EXPECT_EQ(dag.super(deep), TopicId{2});
  EXPECT_EQ(dag.super(TopicId{1}), kRootTopic);
  EXPECT_TRUE(dag.is_root(kRootTopic));
}

TEST(InternPath, IsIdempotentAndSharesPrefixes) {
  TopicDag dag;
  const TopicId first = intern_path(dag, ".x.y");
  EXPECT_EQ(intern_path(dag, ".x.y"), first);
  EXPECT_EQ(dag.size(), 3u);
  const TopicId sibling = intern_path(dag, ".x.z");
  EXPECT_EQ(sibling, TopicId{3});  // only the new leaf is added
  EXPECT_EQ(dag.super(sibling), *dag.find(".x"));
  EXPECT_EQ(intern_path(dag, "."), kRootTopic);
  EXPECT_EQ(dag.size(), 4u);
}

TEST(InternPath, RejectsBadPaths) {
  TopicDag dag;
  EXPECT_THROW(intern_path(dag, "no-dot"), std::invalid_argument);
  EXPECT_THROW(intern_path(dag, ".bad..seg"), std::invalid_argument);
  EXPECT_THROW(intern_path(dag, ".trailing."), std::invalid_argument);
  EXPECT_THROW(intern_path(dag, ""), std::invalid_argument);
  EXPECT_EQ(dag.size(), 0u);
}

TEST(InternPath, IncludesFollowsPrefixes) {
  TopicDag dag;
  const TopicId ab = intern_path(dag, ".a.b");
  const TopicId ac = intern_path(dag, ".a.c");
  const TopicId a = *dag.find(".a");
  EXPECT_TRUE(dag.includes(kRootTopic, ab));
  EXPECT_TRUE(dag.includes(a, ab));
  EXPECT_TRUE(dag.includes(a, ac));
  EXPECT_FALSE(dag.includes(ab, ac));
  EXPECT_FALSE(dag.includes(ab, a));
  EXPECT_FALSE(dag.includes(ab, kRootTopic));
  // ".x" must not include ".xy" even though "x" is a string prefix.
  EXPECT_FALSE(dag.includes(intern_path(dag, ".x"), intern_path(dag, ".xy")));
}

TEST(InternPath, ChainToRootRunsSelfToRoot) {
  TopicDag dag;
  const TopicId abc = intern_path(dag, ".a.b.c");
  const auto path = chain(dag, abc);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path[0], abc);
  EXPECT_EQ(dag.name(path[1]), ".a.b");
  EXPECT_EQ(dag.name(path[2]), ".a");
  EXPECT_EQ(path[3], kRootTopic);
  EXPECT_EQ(chain(dag, kRootTopic), std::vector<TopicId>{kRootTopic});
}

TEST(MakeLinearHierarchy, BuildsChain) {
  TopicDag dag;
  const auto levels = make_linear_hierarchy(dag, 3);
  ASSERT_EQ(levels.size(), 4u);
  EXPECT_EQ(levels[0], kRootTopic);
  EXPECT_EQ(dag.name(levels[1]), ".t1");
  EXPECT_EQ(dag.name(levels[2]), ".t1.t2");
  EXPECT_EQ(dag.name(levels[3]), ".t1.t2.t3");
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_EQ(dag.super(levels[i]), levels[i - 1]);
    EXPECT_EQ(dag.depth(levels[i]), i);
  }
}

TEST(MakeLinearHierarchy, ZeroLevelsIsJustRoot) {
  TopicDag dag;
  const auto levels = make_linear_hierarchy(dag, 0);
  ASSERT_EQ(levels.size(), 1u);
  EXPECT_EQ(levels[0], kRootTopic);
  EXPECT_EQ(dag.size(), 1u);
}

}  // namespace
}  // namespace dam::topics

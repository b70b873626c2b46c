#include "topics/dag.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dam::topics {
namespace {

/// Diamond: B -> {M1, M2} -> A.
struct Diamond {
  TopicDag dag;
  TopicId a, m1, m2, b;

  Diamond() {
    a = dag.add_topic("A");
    m1 = dag.add_topic("M1");
    m2 = dag.add_topic("M2");
    b = dag.add_topic("B");
    dag.add_super(m1, a);
    dag.add_super(m2, a);
    dag.add_super(b, m1);
    dag.add_super(b, m2);
  }
};

std::vector<TopicId> chain(const TopicDag& dag, TopicId id) {
  const auto span = dag.chain_to_root(id);
  return {span.begin(), span.end()};
}

TEST(TopicDag, AddAndFind) {
  TopicDag dag;
  const auto x = dag.add_topic("x");
  EXPECT_EQ(x, TopicId{0});
  EXPECT_EQ(dag.size(), 1u);
  EXPECT_EQ(dag.name(x), "x");
  ASSERT_TRUE(dag.find("x").has_value());
  EXPECT_EQ(*dag.find("x"), x);
  EXPECT_FALSE(dag.find("y").has_value());
  EXPECT_EQ(dag.add_topic("y"), TopicId{1});
}

TEST(TopicDag, RejectsDuplicateAndEmptyNames) {
  TopicDag dag;
  dag.add_topic("x");
  EXPECT_THROW(dag.add_topic("x"), std::invalid_argument);
  EXPECT_THROW(dag.add_topic(""), std::invalid_argument);
}

TEST(TopicDag, MultipleSupers) {
  Diamond d;
  const auto& supers = d.dag.supers(d.b);
  ASSERT_EQ(supers.size(), 2u);
  EXPECT_EQ(supers[0], d.m1);
  EXPECT_EQ(supers[1], d.m2);
  EXPECT_TRUE(d.dag.is_root(d.a));
  EXPECT_FALSE(d.dag.is_root(d.b));
}

TEST(TopicDag, IncludesAcrossDiamond) {
  Diamond d;
  EXPECT_TRUE(d.dag.includes(d.a, d.b));   // via either path
  EXPECT_TRUE(d.dag.includes(d.m1, d.b));
  EXPECT_TRUE(d.dag.includes(d.m2, d.b));
  EXPECT_TRUE(d.dag.includes(d.b, d.b));   // reflexive
  EXPECT_FALSE(d.dag.includes(d.b, d.a));  // not downward
  EXPECT_FALSE(d.dag.includes(d.m1, d.m2));  // siblings unrelated
}

TEST(TopicDag, ChainToRootListsEachAncestorOnce) {
  Diamond d;
  // Self first, then the closure nearest first; A is reached twice but
  // listed once.
  EXPECT_EQ(chain(d.dag, d.b),
            (std::vector<TopicId>{d.b, d.m1, d.m2, d.a}));
  EXPECT_EQ(chain(d.dag, d.a), std::vector<TopicId>{d.a});
}

TEST(TopicDag, RejectsSelfLoopDuplicateEdgeAndCycle) {
  Diamond d;
  EXPECT_THROW(d.dag.add_super(d.b, d.b), std::invalid_argument);
  EXPECT_THROW(d.dag.add_super(d.b, d.m1), std::invalid_argument);  // dup
  // a -> b edge would close the cycle b -> m1 -> a -> b.
  EXPECT_THROW(d.dag.add_super(d.a, d.b), std::invalid_argument);
}

TEST(TopicDag, Depth) {
  Diamond d;
  EXPECT_EQ(d.dag.depth(d.a), 0u);
  EXPECT_EQ(d.dag.depth(d.m1), 1u);
  EXPECT_EQ(d.dag.depth(d.b), 2u);
}

TEST(TopicDag, DepthTakesLongestChain) {
  TopicDag dag;
  const auto a = dag.add_topic("a");
  const auto b = dag.add_topic("b");
  const auto c = dag.add_topic("c");
  const auto x = dag.add_topic("x");
  dag.add_super(b, a);
  dag.add_super(c, b);  // chain of length 2
  dag.add_super(x, a);
  dag.add_super(c, x);  // alternative shorter path would give 2 as well
  EXPECT_EQ(dag.depth(c), 2u);
}

TEST(TopicDag, EdgeAboveASubtreeRefreshesEveryTopicBelow) {
  // Edges added bottom-up: c -> b first, then b -> a. The caches of c,
  // which sits below the new edge, must pick up a as well.
  TopicDag dag;
  const auto a = dag.add_topic("a");
  const auto b = dag.add_topic("b");
  const auto c = dag.add_topic("c");
  dag.add_super(c, b);
  EXPECT_EQ(dag.depth(c), 1u);
  EXPECT_FALSE(dag.includes(a, c));
  dag.add_super(b, a);
  EXPECT_EQ(dag.depth(b), 1u);
  EXPECT_EQ(dag.depth(c), 2u);
  EXPECT_TRUE(dag.includes(a, c));
  EXPECT_EQ(chain(dag, c), (std::vector<TopicId>{c, b, a}));
  EXPECT_THROW(dag.add_super(a, c), std::invalid_argument);  // cycle
}

TEST(TopicDag, SuperNeedsExactlyOneParent) {
  Diamond d;
  EXPECT_EQ(d.dag.super(d.m1), d.a);
  EXPECT_THROW((void)d.dag.super(d.a), std::logic_error);  // root
  EXPECT_THROW((void)d.dag.super(d.b), std::logic_error);  // two parents
}

TEST(TopicDag, RequireTreeRejectsMultipleParents) {
  Diamond d;
  EXPECT_THROW(require_tree(d.dag, "test"), std::invalid_argument);
  TopicDag forest;
  forest.add_topic("x");
  forest.add_topic("y");
  EXPECT_NO_THROW(require_tree(forest, "test"));
}

TEST(TopicDag, UnknownIdsThrow) {
  TopicDag dag;
  dag.add_topic("only");
  EXPECT_THROW((void)dag.supers(TopicId{5}), std::out_of_range);
  EXPECT_THROW(dag.add_super(TopicId{0}, TopicId{5}), std::out_of_range);
  EXPECT_THROW((void)dag.includes(TopicId{5}, TopicId{0}),
               std::out_of_range);
  EXPECT_THROW((void)dag.includes(TopicId{0}, TopicId{5}),
               std::out_of_range);
  EXPECT_THROW((void)dag.depth(TopicId{5}), std::out_of_range);
}

}  // namespace
}  // namespace dam::topics

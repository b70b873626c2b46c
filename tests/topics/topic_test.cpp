#include "topics/topic.hpp"

#include <gtest/gtest.h>

namespace dam::topics {
namespace {

TEST(TopicPath, ParseRoot) {
  auto path = TopicPath::parse(".");
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(path->is_root());
  EXPECT_EQ(path->depth(), 0u);
  EXPECT_EQ(path->str(), ".");
}

TEST(TopicPath, ParseNested) {
  auto path = TopicPath::parse(".dsn04.reviewers");
  ASSERT_TRUE(path.has_value());
  EXPECT_FALSE(path->is_root());
  EXPECT_EQ(path->depth(), 2u);
  EXPECT_EQ(path->segments()[0], "dsn04");
  EXPECT_EQ(path->segments()[1], "reviewers");
  EXPECT_EQ(path->str(), ".dsn04.reviewers");
}

TEST(TopicPath, ParseRejectsMalformed) {
  EXPECT_FALSE(TopicPath::parse("").has_value());
  EXPECT_FALSE(TopicPath::parse("nodot").has_value());
  EXPECT_FALSE(TopicPath::parse("..double").has_value());
  EXPECT_FALSE(TopicPath::parse(".trailing.").has_value());
  EXPECT_FALSE(TopicPath::parse(".bad seg").has_value());
  EXPECT_FALSE(TopicPath::parse(".bad/seg").has_value());
  EXPECT_FALSE(TopicPath::parse(".a..b").has_value());
}

TEST(TopicPath, ParseAcceptsAllowedCharacters) {
  EXPECT_TRUE(TopicPath::parse(".abc.DEF.x_y-z.123").has_value());
}

TEST(TopicPath, SuperWalksUp) {
  auto path = *TopicPath::parse(".a.b.c");
  EXPECT_EQ(path.super().str(), ".a.b");
  EXPECT_EQ(path.super().super().str(), ".a");
  EXPECT_EQ(path.super().super().super().str(), ".");
  EXPECT_TRUE(path.super().super().super().is_root());
}

TEST(TopicPath, ChildExtends) {
  TopicPath root;
  const auto child = root.child("news").child("sports");
  EXPECT_EQ(child.str(), ".news.sports");
  EXPECT_EQ(child.depth(), 2u);
}

TEST(TopicPath, IncludesIsReflexive) {
  auto path = *TopicPath::parse(".a.b");
  EXPECT_TRUE(path.includes(path));
}

TEST(TopicPath, IncludesAncestry) {
  auto root = TopicPath{};
  auto a = *TopicPath::parse(".a");
  auto ab = *TopicPath::parse(".a.b");
  auto ac = *TopicPath::parse(".a.c");
  EXPECT_TRUE(root.includes(a));
  EXPECT_TRUE(root.includes(ab));
  EXPECT_TRUE(a.includes(ab));
  EXPECT_FALSE(ab.includes(a));
  EXPECT_FALSE(ab.includes(ac));
  EXPECT_FALSE(ac.includes(ab));
  EXPECT_FALSE(a.includes(root));
}

TEST(TopicPath, IncludesRequiresSegmentMatchNotPrefix) {
  // ".ab" must not include ".abc" even though "ab" is a string prefix.
  auto ab = *TopicPath::parse(".ab");
  auto abc = *TopicPath::parse(".abc");
  EXPECT_FALSE(ab.includes(abc));
}

TEST(TopicPath, EqualityAndFromSegments) {
  auto parsed = *TopicPath::parse(".x.y");
  auto built = TopicPath::from_segments({"x", "y"});
  EXPECT_EQ(parsed, built);
  EXPECT_NE(parsed, *TopicPath::parse(".x"));
}

TEST(ValidSegment, Rules) {
  EXPECT_TRUE(valid_segment("abc"));
  EXPECT_TRUE(valid_segment("A-1_b"));
  EXPECT_FALSE(valid_segment(""));
  EXPECT_FALSE(valid_segment("has space"));
  EXPECT_FALSE(valid_segment("has.dot"));
  EXPECT_FALSE(valid_segment("ütf"));
}

TEST(TopicId, Compare) {
  TopicId a{1};
  TopicId b{1};
  TopicId c{2};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
}

}  // namespace
}  // namespace dam::topics

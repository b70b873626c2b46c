#include "topics/topic.hpp"

#include <gtest/gtest.h>

namespace dam::topics {
namespace {

TEST(TopicPath, ParseRoot) {
  auto path = TopicPath::parse(".");
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(path->segments().empty());
}

TEST(TopicPath, ParseNested) {
  auto path = TopicPath::parse(".dsn04.reviewers");
  ASSERT_TRUE(path.has_value());
  ASSERT_EQ(path->segments().size(), 2u);
  EXPECT_EQ(path->segments()[0], "dsn04");
  EXPECT_EQ(path->segments()[1], "reviewers");
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

#include "core/params.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace dam::core {
namespace {

TEST(TopicParams, PaperDefaults) {
  const TopicParams params;
  EXPECT_DOUBLE_EQ(params.b, 3.0);
  EXPECT_DOUBLE_EQ(params.c, 5.0);
  EXPECT_DOUBLE_EQ(params.g, 5.0);
  EXPECT_DOUBLE_EQ(params.a, 1.0);
  EXPECT_EQ(params.z, 3u);
  EXPECT_DOUBLE_EQ(params.psucc, 0.85);
  EXPECT_NO_THROW(params.validate());
}

TEST(TopicParams, FanoutFormula) {
  const TopicParams params;  // c = 5
  // ln(1000)+5 = 11.907... -> 12
  EXPECT_EQ(params.fanout(1000), 12u);
  // ln(100)+5 = 9.605... -> 10
  EXPECT_EQ(params.fanout(100), 10u);
  // ln(10)+5 = 7.302... -> 8
  EXPECT_EQ(params.fanout(10), 8u);
  EXPECT_EQ(params.fanout(1), 1u);
  EXPECT_EQ(params.fanout(0), 1u);
}

TEST(TopicParams, ViewCapacityFormula) {
  const TopicParams params;  // b = 3
  EXPECT_EQ(params.view_capacity(1000), 28u);
  EXPECT_EQ(params.view_capacity(100), 19u);
  EXPECT_EQ(params.view_capacity(10), 10u);
  EXPECT_EQ(params.view_capacity(1), 1u);
}

TEST(TopicParams, PselClampsToOne) {
  const TopicParams params;  // g = 5
  EXPECT_DOUBLE_EQ(params.psel(1000), 0.005);
  EXPECT_DOUBLE_EQ(params.psel(100), 0.05);
  EXPECT_DOUBLE_EQ(params.psel(5), 1.0);
  EXPECT_DOUBLE_EQ(params.psel(2), 1.0);
  EXPECT_DOUBLE_EQ(params.psel(0), 1.0);
}

TEST(TopicParams, PaFormula) {
  TopicParams params;
  EXPECT_NEAR(params.pa(), 1.0 / 3.0, 1e-12);
  params.a = 3.0;
  EXPECT_DOUBLE_EQ(params.pa(), 1.0);
}

TEST(TopicParams, ValidateRejectsBadDomains) {
  TopicParams params;
  params.g = 0.5;  // paper: 1 <= g <= S
  EXPECT_THROW(params.validate(), std::invalid_argument);

  params = TopicParams{};
  params.a = 0.0;  // paper: 1 <= a <= z
  EXPECT_THROW(params.validate(), std::invalid_argument);

  params = TopicParams{};
  params.a = 4.0;  // a > z = 3
  EXPECT_THROW(params.validate(), std::invalid_argument);

  params = TopicParams{};
  params.z = 0;
  EXPECT_THROW(params.validate(), std::invalid_argument);

  params = TopicParams{};
  params.tau = 4;  // tau > z
  EXPECT_THROW(params.validate(), std::invalid_argument);

  params = TopicParams{};
  params.psucc = 1.5;
  EXPECT_THROW(params.validate(), std::invalid_argument);

  params = TopicParams{};
  params.c = -1.0;
  EXPECT_THROW(params.validate(), std::invalid_argument);

  params = TopicParams{};
  params.b = -0.1;
  EXPECT_THROW(params.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace dam::core

#include "sim/clock.hpp"

#include <gtest/gtest.h>

namespace dam::sim {
namespace {

TEST(Clock, AdvancesMonotonically) {
  Clock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.tick();
  EXPECT_EQ(clock.now(), 1u);
  clock.advance_to(10);
  EXPECT_EQ(clock.now(), 10u);
  clock.reset();
  EXPECT_EQ(clock.now(), 0u);
}

}  // namespace
}  // namespace dam::sim

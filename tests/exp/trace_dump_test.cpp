// exp::dump_trace — the shared --trace=FILE implementation of damsim and
// damlab: engines without a DamSystem are rejected with a message naming
// the scenario's engine, and a dynamic scenario writes its run-0 trace.
#include "exp/trace_dump.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "sim/scenario.hpp"

namespace dam::exp {
namespace {

sim::Scenario preset(const char* name) {
  const sim::Scenario* found = sim::find_scenario(name);
  EXPECT_NE(found, nullptr) << name;
  return *found;
}

TEST(TraceDump, RejectsTheSteadyRivalsNamingTheirEngine) {
  for (const char* name : {"steady-gossip", "steady-tree"}) {
    SCOPED_TRACE(name);
    std::ostringstream out;
    std::ostringstream err;
    const std::string path = testing::TempDir() + "rival_trace.csv";
    EXPECT_EQ(dump_trace(preset(name), path, out, err, "damlab"), 2);
    EXPECT_EQ(err.str(),
              "damlab: --trace needs a dynamic-engine scenario ('" +
                  std::string(name) +
                  "' runs a steady rival engine, which has no DamSystem to "
                  "trace)\n");
    EXPECT_TRUE(out.str().empty());
    EXPECT_FALSE(std::ifstream(path).good());
  }
}

TEST(TraceDump, RejectsFrozenScenarios) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(dump_trace(preset("fig9"), testing::TempDir() + "fig9.csv", out,
                       err, "damsim"),
            2);
  EXPECT_EQ(err.str(),
            "damsim: --trace needs a dynamic-engine scenario ('fig9' runs "
            "the frozen engine, which has no per-message trace)\n");
  EXPECT_TRUE(out.str().empty());
}

TEST(TraceDump, WritesTheDynamicRunZeroTrace) {
  sim::Scenario scenario = preset("zipf-storm");
  const std::string path = testing::TempDir() + "zipf_trace.csv";
  std::ostringstream out;
  std::ostringstream err;
  ASSERT_EQ(dump_trace(scenario, path, out, err, "damlab"), 0) << err.str();
  EXPECT_TRUE(err.str().empty());
  EXPECT_NE(out.str().find("traced run 0"), std::string::npos);
  std::ifstream file(path);
  std::string header;
  ASSERT_TRUE(std::getline(file, header));
  EXPECT_EQ(header, "round,kind,from,to,topic,publisher,sequence");
  std::string row;
  EXPECT_TRUE(std::getline(file, row));  // at least one recorded happening
}

}  // namespace
}  // namespace dam::exp

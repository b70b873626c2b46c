// Complexity guard for mid-run joins: spawn() into a 10^5-member group
// must touch only the joiner and its O(view) contacts. Copying the group
// for the contact draw and pushing the new size to every member made the
// 1,000 joins below cost 4-5 s on a 2-core x86 box; O(view) joins take
// ~5 ms there (~35 ms under ASan+UBSan). The 0.7 s budget is ~20x the
// sanitizer time, for a busy host running tests in parallel, and still
// trips on any return of O(group) work per join.
#include <gtest/gtest.h>

#include <chrono>

#include "core/system.hpp"
#include "topics/dag.hpp"

namespace dam::core {
namespace {

TEST(JoinScale, MidRunJoinsIntoAHundredThousandGroupStayInBudget) {
  constexpr std::size_t kMembers = 100000;
  constexpr std::size_t kJoins = 1000;
  topics::TopicDag hierarchy;
  topics::intern_path(hierarchy, ".");  // the root group's topic
  DamSystem::Config config;
  config.seed = 0x101;
  config.auto_wire_super_tables = true;
  DamSystem system(hierarchy, config);
  system.spawn_group(topics::kRootTopic, kMembers);
  system.run_rounds(1);

  ProcessId last{};
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t j = 0; j < kJoins; ++j) {
    last = system.spawn(topics::kRootTopic);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_LT(seconds, 0.7) << kJoins << " joins took " << seconds << "s";
  ASSERT_EQ(system.registry().group_size(topics::kRootTopic),
            kMembers + kJoins);
  // The last joiner's topic table is seeded with a full view.
  EXPECT_EQ(system.node(last).group_membership().view().size(),
            config.node.params.view_capacity(kMembers + kJoins));
}

}  // namespace
}  // namespace dam::core

#include "core/bootstrap.hpp"

#include <gtest/gtest.h>

#include "topics/dag.hpp"

namespace dam::core {
namespace {

using net::MsgKind;

class BootstrapTest : public ::testing::Test {
 protected:
  BootstrapTest() {
    levels_ = topics::make_linear_hierarchy(hierarchy_, 3);  // root,t1,t2,t3
    neighbors_ = {ProcessId{10}, ProcessId{11}};
  }

  std::vector<Message> collect(BootstrapTask& task, sim::Round now,
                               bool is_start) {
    std::vector<Message> sent;
    auto sink = [&](Message&& msg) { sent.push_back(std::move(msg)); };
    if (is_start) {
      task.start(now, neighbors_, sink);
    } else {
      task.tick(now, neighbors_, sink);
    }
    return sent;
  }

  topics::TopicDag hierarchy_;
  std::vector<topics::TopicId> levels_;
  std::vector<ProcessId> neighbors_;
};

TEST_F(BootstrapTest, StartSearchesDirectSupertopic) {
  BootstrapTask task(ProcessId{0}, levels_[3], &hierarchy_, {});
  const auto sent = collect(task, 0, /*is_start=*/true);
  EXPECT_TRUE(task.active());
  ASSERT_EQ(sent.size(), neighbors_.size());
  for (const Message& msg : sent) {
    EXPECT_EQ(msg.kind, MsgKind::kReqContact);
    EXPECT_EQ(msg.origin, ProcessId{0});
    ASSERT_EQ(msg.init_msg.size(), 1u);
    EXPECT_EQ(msg.init_msg[0], levels_[2]);  // super(t3) = t2
  }
  ASSERT_EQ(task.init_msg().size(), 1u);
  EXPECT_EQ(task.init_msg()[0], levels_[2]);
}

TEST_F(BootstrapTest, RootProcessNeverStarts) {
  BootstrapTask task(ProcessId{0}, levels_[0], &hierarchy_, {});
  const auto sent = collect(task, 0, true);
  EXPECT_FALSE(task.active());
  EXPECT_TRUE(sent.empty());
}

TEST_F(BootstrapTest, TimeoutWidensScopeUpToRoot) {
  BootstrapTask task(ProcessId{0}, levels_[3], &hierarchy_,
                     {.timeout = 5, .ttl = 4});
  collect(task, 0, true);
  // Before the timeout: nothing.
  EXPECT_TRUE(collect(task, 4, false).empty());
  // Timeout 1: adds t1.
  auto sent = collect(task, 5, false);
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(task.init_msg().size(), 2u);
  EXPECT_EQ(task.init_msg()[1], levels_[1]);
  // Timeout 2: adds root.
  collect(task, 10, false);
  ASSERT_EQ(task.init_msg().size(), 3u);
  EXPECT_EQ(task.init_msg()[2], levels_[0]);
  // Timeout 3: root already included; scope stays, flood repeats.
  sent = collect(task, 15, false);
  EXPECT_EQ(task.init_msg().size(), 3u);
  EXPECT_EQ(sent.size(), 2u);
}

TEST_F(BootstrapTest, DirectSuperAnswerStopsTask) {
  BootstrapTask task(ProcessId{0}, levels_[3], &hierarchy_, {});
  collect(task, 0, true);
  EXPECT_TRUE(task.on_answer(levels_[2]));
  EXPECT_FALSE(task.active());
}

TEST_F(BootstrapTest, HigherAnswerNarrowsButContinues) {
  BootstrapTask task(ProcessId{0}, levels_[3], &hierarchy_,
                     {.timeout = 5, .ttl = 4});
  collect(task, 0, true);
  collect(task, 5, false);   // scope: {t2, t1}
  collect(task, 10, false);  // scope: {t2, t1, root}
  // An answer for t1 (not the direct super t2) narrows: drops t1 and root
  // (both include t1), keeps searching t2.
  EXPECT_TRUE(task.on_answer(levels_[1]));
  EXPECT_TRUE(task.active());
  ASSERT_EQ(task.init_msg().size(), 1u);
  EXPECT_EQ(task.init_msg()[0], levels_[2]);
}

TEST_F(BootstrapTest, OutOfScopeAnswerIgnored) {
  BootstrapTask task(ProcessId{0}, levels_[3], &hierarchy_, {});
  collect(task, 0, true);  // scope: {t2}
  EXPECT_FALSE(task.on_answer(levels_[0]));  // root not yet searched
  EXPECT_FALSE(task.on_answer(levels_[3]));  // own topic never searched
  EXPECT_TRUE(task.active());
}

TEST_F(BootstrapTest, AnswerWhenInactiveIgnored) {
  BootstrapTask task(ProcessId{0}, levels_[3], &hierarchy_, {});
  EXPECT_FALSE(task.on_answer(levels_[2]));
}

TEST_F(BootstrapTest, RestartResetsScope) {
  BootstrapTask task(ProcessId{0}, levels_[3], &hierarchy_,
                     {.timeout = 5, .ttl = 4});
  collect(task, 0, true);
  collect(task, 5, false);  // widened to 2 topics
  EXPECT_TRUE(task.on_answer(levels_[2]));
  EXPECT_FALSE(task.active());
  // Restart (e.g. all super contacts died later).
  collect(task, 20, true);
  EXPECT_TRUE(task.active());
  ASSERT_EQ(task.init_msg().size(), 1u);
  EXPECT_EQ(task.init_msg()[0], levels_[2]);
}

TEST_F(BootstrapTest, RequestIdsIncreasePerFlood) {
  BootstrapTask task(ProcessId{0}, levels_[3], &hierarchy_,
                     {.timeout = 1, .ttl = 4});
  const auto first = collect(task, 0, true);
  const auto second = collect(task, 1, false);
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());
  EXPECT_NE(first[0].request_id, second[0].request_id);
  EXPECT_EQ(task.floods_sent(), 2u);
}

TEST_F(BootstrapTest, TtlCarriedInMessages) {
  BootstrapTask task(ProcessId{0}, levels_[1], &hierarchy_,
                     {.timeout = 5, .ttl = 7});
  const auto sent = collect(task, 0, true);
  ASSERT_FALSE(sent.empty());
  EXPECT_EQ(sent[0].ttl, 7u);
  ASSERT_EQ(sent[0].init_msg.size(), 1u);
  EXPECT_EQ(sent[0].init_msg[0], levels_[0]);  // super(t1) = root
}

}  // namespace
}  // namespace dam::core

#include "core/bootstrap.hpp"

#include <gtest/gtest.h>

#include "context_fixture.hpp"
#include "owned_message.hpp"

namespace dam::core {
namespace {

using dam::testing::OwnedMessage;
using net::MsgKind;

class BootstrapTest : public testing::ContextTest {
 protected:
  BootstrapTest() { env_.neighbors[0] = {ProcessId{10}, ProcessId{11}}; }

  /// Process 0 on `topic`, with bootstrap settings `bootstrap`.
  NodeContext ctx(TopicId topic, BootstrapTask::Config bootstrap = {}) {
    NodeConfig config;
    config.bootstrap = bootstrap;
    return context(ProcessId{0}, topic, config);
  }

  /// Runs start() or tick() and returns what it sent.
  std::vector<OwnedMessage> collect(BootstrapTask& task,
                                    const NodeContext& ctx, sim::Round now,
                                    bool is_start) {
    env_.clear();
    if (is_start) {
      task.start(ctx, now);
    } else {
      task.tick(ctx, now);
    }
    return env_.outbox;
  }

  [[nodiscard]] std::size_t neighbor_count() const {
    return env_.neighbors.at(0).size();
  }
};

TEST_F(BootstrapTest, StartSearchesDirectSupertopic) {
  const NodeContext c = ctx(levels_[3]);
  BootstrapTask task;
  const auto sent = collect(task, c, 0, /*is_start=*/true);
  EXPECT_TRUE(task.active());
  ASSERT_EQ(sent.size(), neighbor_count());
  for (const OwnedMessage& msg : sent) {
    EXPECT_EQ(msg.kind, MsgKind::kReqContact);
    EXPECT_EQ(msg.origin, ProcessId{0});
    ASSERT_EQ(msg.init_msg.size(), 1u);
    EXPECT_EQ(msg.init_msg[0], levels_[2]);  // super(t3) = t2
  }
  ASSERT_EQ(task.init_msg().size(), 1u);
  EXPECT_EQ(task.init_msg()[0], levels_[2]);
}

TEST_F(BootstrapTest, RootProcessNeverStarts) {
  const NodeContext c = ctx(levels_[0]);
  BootstrapTask task;
  const auto sent = collect(task, c, 0, true);
  EXPECT_FALSE(task.active());
  EXPECT_TRUE(sent.empty());
}

TEST_F(BootstrapTest, TimeoutWidensScopeUpToRoot) {
  const NodeContext c = ctx(levels_[3], {.timeout = 5, .ttl = 4});
  BootstrapTask task;
  collect(task, c, 0, true);
  // Before the timeout: nothing.
  EXPECT_TRUE(collect(task, c, 4, false).empty());
  // Timeout 1: adds t1.
  auto sent = collect(task, c, 5, false);
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(task.init_msg().size(), 2u);
  EXPECT_EQ(task.init_msg()[1], levels_[1]);
  // Timeout 2: adds root.
  collect(task, c, 10, false);
  ASSERT_EQ(task.init_msg().size(), 3u);
  EXPECT_EQ(task.init_msg()[2], levels_[0]);
  // Timeout 3: root already included; scope stays, flood repeats.
  sent = collect(task, c, 15, false);
  EXPECT_EQ(task.init_msg().size(), 3u);
  EXPECT_EQ(sent.size(), 2u);
}

TEST_F(BootstrapTest, DirectSuperAnswerStopsTask) {
  const NodeContext c = ctx(levels_[3]);
  BootstrapTask task;
  collect(task, c, 0, true);
  EXPECT_TRUE(task.on_answer(c, levels_[2]));
  EXPECT_FALSE(task.active());
}

TEST_F(BootstrapTest, HigherAnswerNarrowsButContinues) {
  const NodeContext c = ctx(levels_[3], {.timeout = 5, .ttl = 4});
  BootstrapTask task;
  collect(task, c, 0, true);
  collect(task, c, 5, false);   // scope: {t2, t1}
  collect(task, c, 10, false);  // scope: {t2, t1, root}
  // An answer for t1 (not the direct super t2) narrows: drops t1 and root
  // (both include t1), keeps searching t2.
  EXPECT_TRUE(task.on_answer(c, levels_[1]));
  EXPECT_TRUE(task.active());
  ASSERT_EQ(task.init_msg().size(), 1u);
  EXPECT_EQ(task.init_msg()[0], levels_[2]);
}

TEST_F(BootstrapTest, OutOfScopeAnswerIgnored) {
  const NodeContext c = ctx(levels_[3]);
  BootstrapTask task;
  collect(task, c, 0, true);  // scope: {t2}
  EXPECT_FALSE(task.on_answer(c, levels_[0]));  // root not yet searched
  EXPECT_FALSE(task.on_answer(c, levels_[3]));  // own topic never searched
  EXPECT_TRUE(task.active());
}

TEST_F(BootstrapTest, AnswerWhenInactiveIgnored) {
  const NodeContext c = ctx(levels_[3]);
  BootstrapTask task;
  EXPECT_FALSE(task.on_answer(c, levels_[2]));
}

TEST_F(BootstrapTest, RestartResetsScope) {
  const NodeContext c = ctx(levels_[3], {.timeout = 5, .ttl = 4});
  BootstrapTask task;
  collect(task, c, 0, true);
  collect(task, c, 5, false);  // widened to 2 topics
  EXPECT_TRUE(task.on_answer(c, levels_[2]));
  EXPECT_FALSE(task.active());
  // Restart (e.g. all super contacts died later).
  collect(task, c, 20, true);
  EXPECT_TRUE(task.active());
  ASSERT_EQ(task.init_msg().size(), 1u);
  EXPECT_EQ(task.init_msg()[0], levels_[2]);
}

TEST_F(BootstrapTest, RequestIdsIncreasePerFlood) {
  const NodeContext c = ctx(levels_[3], {.timeout = 1, .ttl = 4});
  BootstrapTask task;
  const auto first = collect(task, c, 0, true);
  const auto second = collect(task, c, 1, false);
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());
  EXPECT_NE(first[0].request_id, second[0].request_id);
  EXPECT_EQ(task.floods_sent(), 2u);
}

TEST_F(BootstrapTest, TtlCarriedInMessages) {
  const NodeContext c = ctx(levels_[1], {.timeout = 5, .ttl = 7});
  BootstrapTask task;
  const auto sent = collect(task, c, 0, true);
  ASSERT_FALSE(sent.empty());
  EXPECT_EQ(sent[0].ttl, 7u);
  ASSERT_EQ(sent[0].init_msg.size(), 1u);
  EXPECT_EQ(sent[0].init_msg[0], levels_[0]);  // super(t1) = root
}

}  // namespace
}  // namespace dam::core

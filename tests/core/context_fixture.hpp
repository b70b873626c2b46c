// One fixture for the tests that build a DamNode or one of its components
// (FlatMembership, SuperTopicTable, BootstrapTask) on their own. It owns
// what a host would — a linear topic chain, the NodeConfigs and a scripted
// FakeEnv — and hands out NodeContexts over them, so each test only names
// the identity and the config it needs.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "core/context.hpp"
#include "fake_env.hpp"
#include "topics/dag.hpp"

namespace dam::core::testing {

class ContextTest : public ::testing::Test {
 protected:
  /// A chain of `depth` topics below the root; levels_[0] is the root.
  explicit ContextTest(std::size_t depth = 3) {
    levels_ = topics::make_linear_hierarchy(hierarchy_, depth);
  }

  /// A context for `self` on `topic` over the fixture's DAG and env. The
  /// fixture keeps `config` alive for the test's duration.
  NodeContext context(ProcessId self, TopicId topic, NodeConfig config = {}) {
    configs_.push_back(std::move(config));
    return {self, topic, &hierarchy_, &configs_.back(), &env_};
  }

  topics::TopicDag hierarchy_;
  std::vector<TopicId> levels_;
  std::deque<NodeConfig> configs_;  ///< stable addresses across pushes
  FakeEnv env_;
};

}  // namespace dam::core::testing

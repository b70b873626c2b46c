// Baseline (b): gossip-based multicast (Sec. IV-A pattern (1), Sec. VI-E).
//
// One gossip group per topic, gathering the topic's publishers; a
// subscriber of Ta joins the group of Ta AND of every subtopic of Ta, so an
// event of Tb is disseminated in group Tb only. No parasite messages, but a
// process interested in a high topic carries one membership table per
// (sub)topic — t tables in a depth-t chain — which is the memory-complexity
// cost daMulticast eliminates (analysis::multicast_memory_per_process).
//
// One dissemination is one run_frozen_simulation call on a one-topic DAG
// whose group is the publish topic's audience: daMulticast's intra-group
// leg, verbatim. Publishing from a uniformly drawn audience member instead
// of a member of the publish topic changes no distribution, because the
// members of a uniformly drawn frozen group are exchangeable.
#pragma once

#include "baselines/baseline.hpp"

namespace dam::baselines {

/// Runs one dissemination of an event of `config.publish_topic`: a flat
/// gossip inside group T_publish, whose members are all processes whose
/// topic includes the publish topic.
[[nodiscard]] BaselineResult run_multicast(const core::FrozenSimConfig& config);

}  // namespace dam::baselines

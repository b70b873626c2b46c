#include "baselines/steady.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/protocol.hpp"
#include "sim/metrics.hpp"
#include "util/rng.hpp"

namespace dam::baselines {

namespace {

/// Arity of the Scribe-style per-group dissemination trees. Eight keeps an
/// interior node's branching close to the epidemic fanout ln(S)+c at the
/// preset group sizes, so the head-to-head compares redundancy strategy
/// rather than raw branching factor.
constexpr std::size_t kTreeArity = 8;

/// Tree-maintenance cadence: one heartbeat per tree edge (member -> tree
/// parent) every this many rounds — the tree baseline's control plane. The
/// flat gossip baseline pays one membership-gossip message per process on
/// the same cadence.
constexpr std::size_t kMaintenancePeriod = 4;

/// One queued dissemination hop; messages sent in round r arrive in r+1,
/// matching the transport's one-round links.
struct Hop {
  std::uint32_t event;  ///< index into the run's event table
  std::uint32_t to;
  std::uint8_t phase;   ///< tree: 0 up toward group root, 1 down the tree,
                        ///< 2 cross to the parent group's root
};

/// The tree and flat-gossip rivals as one workload::StreamEngine.
class BaselineEngine final : public workload::StreamEngine {
 public:
  BaselineEngine(const sim::Scenario& scenario, const topics::TopicDag& dag,
                 std::uint64_t seed)
      : tree_(scenario.engine == sim::EngineKind::kBaselineTree),
        dag_(dag),
        params_(sim::homogeneous_params(scenario, "run_steady_baseline")),
        topic_count_(dag.size()),
        interest_(topic_count_ * topic_count_, 0),
        members_(topic_count_),
        duplicates_(topic_count_, 0),
        rng_(seed) {
    // interest_[g * topic_count_ + t] != 0 iff group g delivers
    // publications on topic t — g is an ancestor-or-self of t.
    for (std::uint32_t g = 0; g < topic_count_; ++g) {
      for (std::uint32_t topic = 0; topic < topic_count_; ++topic) {
        interest_[std::size_t{g} * topic_count_ + topic] =
            dag.includes(topics::TopicId{g}, topics::TopicId{topic});
      }
    }
  }

  sim::Metrics& metrics() override { return metrics_; }
  void set_failures(std::unique_ptr<sim::ChurnFailures> failures) override {
    failures_ = std::move(failures);
  }
  void spawn_group(topics::TopicId topic, std::size_t count) override {
    std::vector<topics::ProcessId>& group = members_[topic.value];
    for (std::size_t i = 0; i < count; ++i) {
      slot_of_.push_back(static_cast<std::uint32_t>(group.size()));
      group.push_back(
          topics::ProcessId{static_cast<std::uint32_t>(topic_of_.size())});
      topic_of_.push_back(topic.value);
    }
  }
  void join(topics::TopicId topic) override { spawn_group(topic, 1); }
  const std::vector<topics::ProcessId>& group(
      topics::TopicId topic) const override {
    return members_[topic.value];
  }

  net::EventId publish(topics::ProcessId publisher,
                       topics::TopicId topic) override {
    const auto id = static_cast<std::uint32_t>(events_.size());
    const std::uint32_t p = publisher.value;
    EventState state;
    state.topic = topic.value;
    events_.push_back(std::move(state));
    mark(events_.back(), p);
    metrics_.note_publish(event_id(id), round_);  // self-delivery, latency 0
    if (!tree_) {
      gossip_forward(id, p, round_);
    } else if (slot_of_[p] != 0) {
      send(id, p, up_target(p), 0, false, round_);
    } else {
      root_actions(id, p, round_);
    }
    return event_id(id);
  }

  void run_round() override {
    const std::size_t round = round_;
    std::swap(current_, next_);
    next_.clear();
    for (const Hop& hop : current_) process_hop(hop, round);
    if (round % kMaintenancePeriod == 0) {
      // Control plane: tree heartbeats member -> tree parent (roots have
      // none); the flat gossip group pays one membership gossip each.
      for (std::uint32_t p = 0; p < topic_of_.size(); ++p) {
        if (tree_ && slot_of_[p] == 0) continue;
        if (!alive(p, round)) continue;
        metrics_.note_control_send(round, topics::TopicId{topic_of_[p]});
      }
    }
    const std::size_t queue_bytes = next_.size() * sizeof(Hop);
    queue_peak_ = std::max(queue_peak_, queue_bytes);
    window_queue_peak_ = std::max(window_queue_peak_, queue_bytes);
    ++round_;
  }

  DeliveredView delivered(net::EventId event) const override {
    const EventState& state = events_[event.sequence];
    return {state.words, state.count};
  }
  void retire(net::EventId event) override {
    // The delivered set is released and late hops are dropped.
    EventState& state = events_[event.sequence];
    state.retired = true;
    state.words = std::vector<std::uint64_t>();
    state.count = 0;
  }
  WindowSample sample_window() override {
    // Logical bytes in the id-list model, 4 B per delivered process (the
    // pinned steady goldens count this way), though the set is stored as
    // one bit per process.
    std::uint64_t delivered_bytes = 0;
    for (const EventState& state : events_) {
      if (!state.retired) {
        delivered_bytes += state.count * sizeof(std::uint32_t);
      }
    }
    WindowSample sample;
    sample.delivered_bytes = delivered_bytes;
    sample.queue_peak = std::exchange(window_queue_peak_, 0);
    return sample;
  }

  void collect(workload::DynamicRunResult& result) const override {
    for (std::size_t group = 0; group < topic_count_; ++group) {
      result.groups[group].duplicate_deliveries = duplicates_[group];
    }
    // Tree routing is pure address arithmetic and the gossip targets are
    // drawn fresh per hop — neither rival holds membership tables, so the
    // table gauge is honestly zero; the queue gauge is the hop queue's
    // high-water footprint.
    result.table_bytes = 0;
    result.queue_bytes = queue_peak_;
  }

 private:
  struct EventState {
    std::uint32_t topic = 0;
    bool retired = false;  ///< deadline harvested; late hops are dropped
    /// Every first reception, one bit per process; `count` bits are set.
    std::vector<std::uint64_t> words;
    std::size_t count = 0;
  };

  /// A rival's event id is its publication index.
  static net::EventId event_id(std::uint32_t event) {
    return {topics::ProcessId{0}, event};
  }

  bool alive(std::uint32_t process, std::size_t round) const {
    return failures_->alive(topics::ProcessId{process},
                            static_cast<sim::Round>(round));
  }

  void send(std::uint32_t event, std::uint32_t from, std::uint32_t to,
            std::uint8_t phase, bool inter, std::size_t round) {
    next_.push_back(Hop{event, to, phase});
    const topics::TopicId sender{topic_of_[from]};
    if (inter) {
      metrics_.note_inter_send(round, sender, topics::TopicId{topic_of_[to]});
    } else {
      metrics_.note_intra_send(round, sender);
    }
  }

  /// Sets `q`'s bit in the event's delivered set; false if it was set.
  bool mark(EventState& state, std::uint32_t q) {
    const std::size_t word = q / 64;
    const std::uint64_t bit = std::uint64_t{1} << (q % 64);
    if (word >= state.words.size()) {
      state.words.resize((topic_of_.size() + 63) / 64, 0);
    }
    if ((state.words[word] & bit) != 0) return false;
    state.words[word] |= bit;
    ++state.count;
    return true;
  }

  /// First-reception bookkeeping shared by both engines. Returns true iff
  /// this was `q`'s first reception (callers forward only then). As for
  /// DamSystem, only INTERESTED receptions are event deliveries in the
  /// Metrics, so latency percentiles stay comparable with the protocol
  /// lane; the gossip engine's parasite receptions still land in the
  /// delivered set (-> all_alive_delivered = false for uninterested
  /// groups) and count as parasite deliveries.
  bool receive(std::uint32_t event, std::uint32_t q, std::size_t round) {
    EventState& state = events_[event];
    if (state.retired) return false;  // late hop past the deadline harvest
    // The delivered set is the duplicate filter too: it is only cleared at
    // retirement, after which hops are dropped above.
    if (!mark(state, q)) {
      ++duplicates_[topic_of_[q]];
      return false;
    }
    if (interest_[std::size_t{topic_of_[q]} * topic_count_ + state.topic] ==
        0) {
      metrics_.count_parasite_delivery();
    } else {
      metrics_.note_event_delivery(event_id(event), round);
    }
    return true;
  }

  /// Tree edges over the heap layout: slot s's tree parent is
  /// (s-1)/arity, its children are arity*s + 1 .. arity*s + arity (join
  /// order == slot).
  std::uint32_t up_target(std::uint32_t q) const {
    return members_[topic_of_[q]][(slot_of_[q] - 1) / kTreeArity].value;
  }
  void down_spread(std::uint32_t event, std::uint32_t q, std::size_t round) {
    const std::vector<topics::ProcessId>& roster = members_[topic_of_[q]];
    const std::size_t first_child = kTreeArity * slot_of_[q] + 1;
    const std::size_t end = std::min(first_child + kTreeArity, roster.size());
    for (std::size_t child = first_child; child < end; ++child) {
      send(event, q, roster[child].value, 1, false, round);
    }
  }
  /// Group-root actions: spread down this group's tree and hop to the
  /// parent group's root — events flow from the published group's root up
  /// the hierarchy, one root-to-root hop per ancestor level.
  void root_actions(std::uint32_t event, std::uint32_t root,
                    std::size_t round) {
    down_spread(event, root, round);
    const topics::TopicId group{topic_of_[root]};
    if (dag_.is_root(group)) return;
    const auto& parent_members = members_[dag_.super(group).value];
    if (!parent_members.empty()) {
      send(event, root, parent_members[0].value, 2, true, round);
    }
  }
  void on_tree_hop(const Hop& hop, std::size_t round) {
    const bool first = receive(hop.event, hop.to, round);
    if (events_[hop.event].retired) return;
    const std::size_t slot = slot_of_[hop.to];
    if (hop.phase == 0 && slot != 0) {
      // Up leg: relay toward the group root. First reception only — a
      // duplicate here means the chain already carried the event up.
      if (first) send(hop.event, hop.to, up_target(hop.to), 0, false, round);
      return;
    }
    if (slot == 0) {
      // The group root, reached by the up leg or a cross hop.
      if (first) root_actions(hop.event, hop.to, round);
      return;
    }
    // Down leg: forward to tree children UNCONDITIONALLY — nodes on the
    // publisher's up chain have already delivered, but their subtrees
    // still need the spread. Down hops strictly increase the slot, so
    // this terminates without a dedup check.
    down_spread(hop.event, hop.to, round);
  }

  /// Interest-agnostic flat gossip: fanout(N) = ceil(ln N + c) uniform
  /// targets over the WHOLE population, with replacement, infect-and-die.
  void gossip_forward(std::uint32_t event, std::uint32_t from,
                      std::size_t round) {
    const std::size_t population = topic_of_.size();
    const std::size_t fanout = params_.fanout(population);
    for (std::size_t i = 0; i < fanout; ++i) {
      const auto target = static_cast<std::uint32_t>(rng_.below(population));
      send(event, from, target, 1, false, round);
    }
  }

  void process_hop(const Hop& hop, std::size_t round) {
    // Same two gates as the transport: the per-message channel coin
    // (best-effort links) and target liveness.
    if (!core::protocol::channel_delivers(params_.psucc, rng_)) return;
    if (!alive(hop.to, round)) return;
    if (tree_) {
      on_tree_hop(hop, round);
    } else if (receive(hop.event, hop.to, round)) {
      gossip_forward(hop.event, hop.to, round);
    }
  }

  const bool tree_;
  const topics::TopicDag& dag_;
  const core::TopicParams params_;
  const std::size_t topic_count_;
  std::vector<char> interest_;

  std::unique_ptr<sim::ChurnFailures> failures_;
  std::vector<std::vector<topics::ProcessId>> members_;
  std::vector<std::uint32_t> topic_of_;
  std::vector<std::uint32_t> slot_of_;  ///< member rank inside its group
  std::vector<EventState> events_;      ///< by publication index

  sim::Metrics metrics_;
  std::vector<std::uint64_t> duplicates_;  ///< by topic

  util::Rng rng_;
  std::size_t round_ = 0;  ///< absolute round index
  std::vector<Hop> current_;
  std::vector<Hop> next_;
  std::size_t queue_peak_ = 0;
  std::size_t window_queue_peak_ = 0;
};

}  // namespace

workload::DynamicRunResult run_steady_baseline(const sim::Scenario& scenario,
                                               const topics::TopicDag& dag,
                                               double alive_fraction,
                                               int run) {
  if (scenario.engine != sim::EngineKind::kBaselineTree &&
      scenario.engine != sim::EngineKind::kBaselineGossip) {
    throw std::invalid_argument("run_steady_baseline: scenario '" +
                                scenario.name +
                                "' does not select a baseline engine");
  }
  return workload::replay_stream(
      scenario, dag, alive_fraction, run, "run_steady_baseline",
      [&](std::uint64_t seed) {
        return std::make_unique<BaselineEngine>(scenario, dag, seed);
      });
}

}  // namespace dam::baselines

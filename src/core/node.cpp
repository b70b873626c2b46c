#include "core/node.hpp"

#include <algorithm>

#include "core/protocol.hpp"

namespace dam::core {

namespace {
std::uint64_t request_key(ProcessId origin, std::uint32_t request_id) {
  return (static_cast<std::uint64_t>(origin.value) << 32) | request_id;
}
}  // namespace

DamNode::DamNode(ProcessId self, TopicId topic,
                 const topics::TopicDag* hierarchy,
                 std::shared_ptr<const NodeConfig> config,
                 std::size_t group_size_estimate, util::Rng rng, Env* env)
    : self_(self),
      topic_(topic),
      hierarchy_(hierarchy),
      config_(std::move(config)),
      env_(env),
      rng_(rng),
      membership_(self, topic, config_->membership, group_size_estimate,
                  rng.fork(0xA11CE)),
      super_table_(self, config_->params.z),
      bootstrap_(self, topic, hierarchy, config_->bootstrap) {
  config_->params.validate();
  if (config_->recovery.enabled) recovery_ = std::make_unique<RecoveryState>();
}

DamNode::DamNode(ProcessId self, TopicId topic,
                 const topics::TopicDag* hierarchy, NodeConfig config,
                 std::size_t group_size_estimate, util::Rng rng, Env* env)
    : DamNode(self, topic, hierarchy,
              std::make_shared<const NodeConfig>(std::move(config)),
              group_size_estimate, rng, env) {}

void DamNode::subscribe(const std::vector<ProcessId>& group_contacts,
                        const std::vector<ProcessId>& super_contacts,
                        std::optional<TopicId> super_contacts_topic) {
  subscribed_ = true;
  membership_.join(group_contacts);
  if (is_root()) return;
  if (!super_contacts.empty()) {
    // Bootstrap shortcut (Fig. 4 lines 5–8): supergroup contacts were
    // provided out of band, possibly for a topic above the direct
    // supertopic when intermediate groups are empty (footnote 4).
    super_table_.merge(super_contacts_topic.value_or(hierarchy_->super(topic_)),
                       super_contacts, alive_probe());
  } else {
    bootstrap_.start(env_->now(), env_->neighborhood(self_),
                     [this](Message&& msg) { env_->send(std::move(msg)); });
  }
}

void DamNode::subscribe_shared(std::span<const ProcessId> group_contacts,
                               std::span<const ProcessId> super_contacts,
                               std::optional<TopicId> super_contacts_topic) {
  subscribed_ = true;
  membership_.adopt(group_contacts);
  if (is_root()) return;
  if (!super_contacts.empty()) {
    // A sampled arena row is exactly what subscribe()'s merge would have
    // installed into the empty table (distinct, no owner, at most z
    // entries) — adopt it in place.
    super_table_.seed(super_contacts_topic.value_or(hierarchy_->super(topic_)),
                      super_contacts);
  } else {
    bootstrap_.start(env_->now(), env_->neighborhood(self_),
                     [this](Message&& msg) { env_->send(std::move(msg)); });
  }
}

void DamNode::pull_group_size() {
  const std::size_t size = env_->group_size(topic_);
  if (size != membership_.group_size_estimate()) {
    membership_.set_group_size_estimate(size);
  }
}

EventId DamNode::publish(std::vector<std::uint8_t> payload) {
  const EventId event{self_, next_sequence_++};
  // The publisher "receives" its own event: mark seen, deliver locally,
  // and run DISSEMINATE (Fig. 7 is invoked by the publisher as well).
  env_->mark_seen(self_, event);
  Message msg;
  msg.kind = MsgKind::kEvent;
  msg.from = self_;
  msg.to = self_;
  msg.topic = topic_;
  msg.event = event;
  msg.payload = std::move(payload);
  remember_history(msg);
  env_->deliver(self_, msg);
  disseminate(msg);
  return event;
}

void DamNode::on_message(const Message& msg) {
  switch (msg.kind) {
    case MsgKind::kEvent:
      handle_event(msg);
      break;
    case MsgKind::kReqContact:
      handle_req_contact(msg);
      break;
    case MsgKind::kAnsContact:
      handle_ans_contact(msg);
      break;
    case MsgKind::kNewProcessAsk:
      handle_new_process_ask(msg);
      break;
    case MsgKind::kNewProcessGive:
      handle_new_process_give(msg);
      break;
    case MsgKind::kMembership:
      handle_membership(msg);
      break;
    case MsgKind::kEventRequest:
      handle_event_request(msg);
      break;
  }
}

void DamNode::round(sim::Round now) {
  if (!subscribed_) return;
  pull_group_size();
  // Underlying membership gossip, with the supertopic table piggybacked
  // (Sec. V-A.2a) so fresh super contacts spread through the group. The
  // recovery extension additionally piggybacks a digest of recently seen
  // event ids (most recent first).
  membership_.round(now, super_table_.entries(), super_table_.super_topic(),
                    [this](Message&& msg) {
                      if (recovery_) {
                        const auto& history = recovery_->history;
                        const std::size_t digest = std::min(
                            config_->recovery.digest_size, history.size());
                        msg.event_ids.reserve(digest);
                        for (std::size_t i = 0; i < digest; ++i) {
                          msg.event_ids.push_back(
                              history[history.size() - 1 - i].event);
                        }
                      }
                      env_->send(std::move(msg));
                    });
  // Bootstrap timeouts (FIND_SUPER_CONTACT widening).
  bootstrap_.tick(now, env_->neighborhood(self_),
                  [this](Message&& msg) { env_->send(std::move(msg)); });
  // Supertopic-table maintenance.
  const sim::Round period = config_->maintenance_period;
  if (period > 0 && now % period == 0) {
    maintain_links(now);
  }
}

void DamNode::disseminate(const Message& event_msg) {
  pull_group_size();
  const TopicParams& params = config_->params;
  const std::size_t group_size =
      std::max<std::size_t>(membership_.group_size_estimate(), 1);

  // (1) Intergroup leg (Fig. 7 lines 3–7): elect self with probability
  // psel = g/S; if elected, send to each supertopic-table entry with
  // probability pa = a/z. Root processes have an empty table and skip this.
  protocol::for_each_intergroup_target(
      params, group_size, super_table_.entries(), rng_, [&](ProcessId target) {
        Message out = event_msg;
        out.from = self_;
        out.to = target;
        out.intergroup = true;
        env_->send(std::move(out));
      });

  // (2) Intra-group gossip leg (Fig. 7 lines 8–14): fanout distinct
  // processes drawn from the topic table, without replacement (the Ω set).
  for (ProcessId target : protocol::fanout_targets(
           params, group_size, membership_.view().entries(), rng_)) {
    Message out = event_msg;
    out.from = self_;
    out.to = target;
    out.intergroup = false;
    env_->send(std::move(out));
  }
}

void DamNode::handle_event(const Message& msg) {
  // Fig. 5 lines 5–10: first reception forwards + delivers; duplicates are
  // suppressed (the host's seen store).
  if (!env_->mark_seen(self_, msg.event)) {
    ++duplicates_;
    return;
  }
  remember_history(msg);
  env_->deliver(self_, msg);
  disseminate(msg);
}

void DamNode::handle_req_contact(const Message& msg) {
  // Fig. 4 lines 4–13 (executed once per flooded request).
  if (!seen_requests_) {
    seen_requests_ = std::make_unique<std::unordered_set<std::uint64_t>>();
  }
  if (!seen_requests_->insert(request_key(msg.origin, msg.request_id))
           .second) {
    return;
  }
  // Ψ^m_initMsg: do we know processes interested in one of the searched
  // topics? We know (a) our own group if our topic is searched, and
  // (b) our supertopic table's group if that topic is searched.
  for (TopicId searched : msg.init_msg) {
    std::vector<ProcessId> known;
    if (searched == topic_) {
      known.push_back(self_);
      const auto extra = membership_.view().sample(config_->params.z, rng_);
      known.insert(known.end(), extra.begin(), extra.end());
    } else if (super_table_.super_topic() == searched &&
               !super_table_.empty()) {
      const auto table = super_table_.entries();
      known.assign(table.begin(), table.end());
    }
    if (known.empty()) continue;
    if (known.size() > config_->params.z) known.resize(config_->params.z);
    Message answer;
    answer.kind = MsgKind::kAnsContact;
    answer.from = self_;
    answer.to = msg.origin;
    answer.answer_topic = searched;
    answer.processes = std::move(known);
    env_->send(std::move(answer));
    return;  // one answer per request (lines 6–7: SEND then RETURN)
  }
  // Cannot answer: forward through the neighborhood while the message has
  // not expired (lines 10–12).
  if (msg.ttl == 0) return;
  for (ProcessId neighbor : env_->neighborhood(self_)) {
    if (neighbor == msg.from || neighbor == msg.origin) continue;
    Message fwd = msg;
    fwd.from = self_;
    fwd.to = neighbor;
    fwd.ttl = msg.ttl - 1;
    env_->send(std::move(fwd));
  }
}

void DamNode::handle_ans_contact(const Message& msg) {
  // Fig. 4 lines 30–37.
  if (msg.processes.empty()) return;
  const bool useful = bootstrap_.on_answer(msg.answer_topic);
  if (!useful && !better_or_equal_super(msg.answer_topic)) return;
  const bool retarget = super_table_.super_topic() != msg.answer_topic;
  super_table_.merge(msg.answer_topic, msg.processes, alive_probe(),
                     /*replace=*/retarget && better_or_equal_super(
                                     msg.answer_topic));
}

void DamNode::handle_new_process_ask(const Message& msg) {
  // Fig. 6 lines 2–5: a subprocess asks us (a supergroup member) for fresh
  // superprocesses; answer with ourselves plus a sample of our group view.
  Message reply;
  reply.kind = MsgKind::kNewProcessGive;
  reply.from = self_;
  reply.to = msg.from;
  reply.answer_topic = topic_;
  reply.processes.push_back(self_);
  const auto extra = membership_.view().sample(config_->params.z, rng_);
  reply.processes.insert(reply.processes.end(), extra.begin(), extra.end());
  if (reply.processes.size() > config_->params.z) {
    reply.processes.resize(config_->params.z);
  }
  env_->send(std::move(reply));
}

void DamNode::handle_new_process_give(const Message& msg) {
  // Fig. 6 lines 6–9: merge fresh superprocesses.
  if (!better_or_equal_super(msg.answer_topic)) return;
  super_table_.merge(msg.answer_topic, msg.processes, alive_probe());
}

void DamNode::handle_membership(const Message& msg) {
  if (msg.answer_topic == topic_) {
    pull_group_size();  // the view capacity bounds the merge
    membership_.on_membership(msg);
  }
  // Recovery: request events the digest shows we are missing. Digests only
  // travel within a group, so everything advertised is of interest here.
  if (recovery_ && !msg.event_ids.empty()) {
    Message request;
    request.kind = MsgKind::kEventRequest;
    request.from = self_;
    request.to = msg.from;
    for (const net::EventId& id : msg.event_ids) {
      if (!env_->seen(self_, id)) request.event_ids.push_back(id);
    }
    if (!request.event_ids.empty()) {
      ++recovery_->requests_sent;
      env_->send(std::move(request));
    }
  }
  // Piggybacked supertopic table (Sec. V-A.2a): adopt contacts for our
  // (nearest) supergroup discovered by peers.
  if (msg.piggyback_topic && !msg.piggyback_super_table.empty() &&
      better_or_equal_super(*msg.piggyback_topic)) {
    const bool useful = bootstrap_.on_answer(*msg.piggyback_topic);
    (void)useful;  // piggyback can satisfy the bootstrap search too
    super_table_.merge(*msg.piggyback_topic, msg.piggyback_super_table,
                       alive_probe());
  }
}

void DamNode::maintain_links(sim::Round now) {
  if (is_root()) return;
  const TopicParams& params = config_->params;
  if (super_table_.empty()) {
    // Fig. 6 lines 12–14: nothing to maintain; (re)start the search.
    if (!bootstrap_.active()) {
      bootstrap_.start(now, env_->neighborhood(self_),
                       [this](Message&& msg) { env_->send(std::move(msg)); });
    }
    return;
  }
  // Fig. 6 lines 15–23: with probability psel, probe the table; if the
  // number of alive entries dropped to the threshold τ or below, ask every
  // alive superprocess for fresh contacts.
  const std::size_t group_size =
      std::max<std::size_t>(membership_.group_size_estimate(), 1);
  if (!rng_.bernoulli(params.psel(group_size))) return;
  if (super_table_.check(alive_probe()) > params.tau) return;
  super_table_.drop_failed(alive_probe());
  for (ProcessId target : super_table_.entries()) {
    Message ask;
    ask.kind = MsgKind::kNewProcessAsk;
    ask.from = self_;
    ask.to = target;
    env_->send(std::move(ask));
  }
  if (super_table_.empty() && !bootstrap_.active()) {
    // Every superprocess failed: fall back to the full search.
    bootstrap_.start(now, env_->neighborhood(self_),
                     [this](Message&& msg) { env_->send(std::move(msg)); });
  }
}

void DamNode::handle_event_request(const Message& msg) {
  if (!recovery_) return;
  for (const net::EventId& wanted : msg.event_ids) {
    for (const Message& stored : recovery_->history) {
      if (stored.event != wanted) continue;
      Message retransmit = stored;
      retransmit.from = self_;
      retransmit.to = msg.from;
      retransmit.intergroup = false;
      ++recovery_->retransmissions_sent;
      env_->send(std::move(retransmit));
      break;
    }
  }
}

void DamNode::remember_history(const Message& event_msg) {
  if (!recovery_) return;
  auto& history = recovery_->history;
  history.push_back(event_msg);
  while (history.size() > config_->recovery.history_size) {
    history.pop_front();
  }
}

bool DamNode::better_or_equal_super(TopicId candidate) const {
  if (candidate == topic_) return false;
  if (!hierarchy_->includes(candidate, topic_)) return false;  // not a super
  const auto current = super_table_.super_topic();
  if (!current) return true;
  // Deeper supertopics are closer to the direct supertopic — prefer them.
  return hierarchy_->depth(candidate) >= hierarchy_->depth(*current);
}

}  // namespace dam::core

#include "core/node.hpp"

#include <algorithm>

#include "core/protocol.hpp"

namespace dam::core {

namespace {
/// Rounds between KEEP_TABLE_UPDATED passes over the supertopic table.
constexpr sim::Round kMaintenancePeriod = 4;

std::uint64_t request_key(ProcessId origin, std::uint32_t request_id) {
  return (static_cast<std::uint64_t>(origin.value) << 32) | request_id;
}
}  // namespace

DamNode::DamNode(const NodeContext& context, std::size_t group_size_estimate,
                 util::Rng rng)
    : ctx_(context),
      rng_(rng),
      membership_(context, group_size_estimate, rng.fork(0xA11CE)) {
  ctx_.config->params.validate();
  if (ctx_.config->recovery.enabled) {
    recovery_ = std::make_unique<RecoveryState>();
  }
}

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
    super_table_.merge(
        ctx_, super_contacts_topic.value_or(ctx_.hierarchy->super(ctx_.topic)),
        super_contacts, alive_probe());
  } else {
    bootstrap_.start(ctx_, ctx_.env->now());
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
    super_table_.seed(
        super_contacts_topic.value_or(ctx_.hierarchy->super(ctx_.topic)),
        super_contacts);
  } else {
    bootstrap_.start(ctx_, ctx_.env->now());
  }
}

void DamNode::pull_group_size() {
  const std::size_t size = ctx_.env->group_size(ctx_.topic);
  if (size != membership_.group_size_estimate()) {
    membership_.set_group_size_estimate(ctx_, size);
  }
}

EventId DamNode::publish(std::vector<std::uint8_t> payload) {
  const EventId event{ctx_.self, next_sequence_++};
  // The publisher "receives" its own event: mark seen, deliver locally,
  // and run DISSEMINATE (Fig. 7 is invoked by the publisher as well).
  ctx_.env->mark_seen(ctx_.self, event);
  const Message msg{.kind = MsgKind::kEvent, .from = ctx_.self, .to = ctx_.self,
                    .topic = ctx_.topic, .event = event, .payload = payload};
  remember_history(msg);
  ctx_.env->deliver(ctx_.self, msg);
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
  std::vector<EventId> digest;
  if (recovery_) {
    const auto& history = recovery_->history;
    for (auto it = history.rbegin();
         it != history.rend() &&
         digest.size() < ctx_.config->recovery.digest_size;
         ++it) {
      digest.push_back(it->event);
    }
  }
  membership_.round(ctx_, super_table_.entries(),
                    super_table_.super_topic(), digest);
  // Bootstrap timeouts (FIND_SUPER_CONTACT widening).
  bootstrap_.tick(ctx_, now);
  // Supertopic-table maintenance.
  if (now % kMaintenancePeriod == 0) {
    maintain_links(now);
  }
}

void DamNode::disseminate(const Message& event_msg) {
  pull_group_size();
  const TopicParams& params = ctx_.config->params;
  const std::size_t group_size =
      std::max<std::size_t>(membership_.group_size_estimate(), 1);

  // Every copy is this one message, re-addressed. The body handle the
  // first send returns makes every later copy share that interned body.
  Message out = event_msg;
  out.from = ctx_.self;

  // (1) Intergroup leg (Fig. 7 lines 3–7): elect self with probability
  // psel = g/S; if elected, send to each supertopic-table entry with
  // probability pa = a/z. Root processes have an empty table and skip this.
  protocol::for_each_intergroup_target(
      params, group_size, super_table_.entries(), rng_, [&](ProcessId target) {
        out.to = target;
        out.intergroup = true;
        out.body = ctx_.env->send(out);
      });

  // (2) Intra-group gossip leg (Fig. 7 lines 8–14): fanout distinct
  // processes drawn from the topic table, without replacement (the Ω set).
  for (ProcessId target : protocol::fanout_targets(
           params, group_size, membership_.view().entries(), rng_)) {
    out.to = target;
    out.intergroup = false;
    out.body = ctx_.env->send(out);
  }
}

void DamNode::handle_event(const Message& msg) {
  // Fig. 5 lines 5–10: first reception forwards + delivers; duplicates are
  // suppressed (the host's seen store).
  if (!ctx_.env->mark_seen(ctx_.self, msg.event)) {
    ++duplicates_;
    return;
  }
  remember_history(msg);
  ctx_.env->deliver(ctx_.self, msg);
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
    if (searched == ctx_.topic) {
      known.push_back(ctx_.self);
      const auto extra = membership_.view().sample(ctx_.config->params.z, rng_);
      known.insert(known.end(), extra.begin(), extra.end());
    } else if (super_table_.super_topic() == searched &&
               !super_table_.empty()) {
      const auto table = super_table_.entries();
      known.assign(table.begin(), table.end());
    }
    if (known.empty()) continue;
    const std::size_t z = ctx_.config->params.z;
    if (known.size() > z) known.resize(z);
    ctx_.env->send({.kind = MsgKind::kAnsContact, .from = ctx_.self,
                    .to = msg.origin, .answer_topic = searched,
                    .processes = known});
    return;  // one answer per request (lines 6–7: SEND then RETURN)
  }
  // Cannot answer: forward through the neighborhood while the message has
  // not expired (lines 10–12).
  if (msg.ttl == 0) return;
  for (ProcessId neighbor : ctx_.env->neighborhood(ctx_.self)) {
    if (neighbor == msg.from || neighbor == msg.origin) continue;
    Message fwd = msg;
    fwd.from = ctx_.self;
    fwd.to = neighbor;
    fwd.ttl = msg.ttl - 1;
    ctx_.env->send(fwd);
  }
}

void DamNode::handle_ans_contact(const Message& msg) {
  // Fig. 4 lines 30–37.
  if (msg.processes.empty()) return;
  const bool useful =
      bootstrap_.active() && bootstrap_.on_answer(ctx_, msg.answer_topic);
  if (!useful && !better_or_equal_super(msg.answer_topic)) return;
  const bool retarget = super_table_.super_topic() != msg.answer_topic;
  super_table_.merge(ctx_, msg.answer_topic, msg.processes, alive_probe(),
                     /*replace=*/retarget && better_or_equal_super(
                                     msg.answer_topic));
}

void DamNode::handle_new_process_ask(const Message& msg) {
  // Fig. 6 lines 2–5: a subprocess asks us (a supergroup member) for fresh
  // superprocesses; answer with ourselves plus a sample of our group view.
  std::vector<ProcessId> processes{ctx_.self};
  const auto extra = membership_.view().sample(ctx_.config->params.z, rng_);
  processes.insert(processes.end(), extra.begin(), extra.end());
  processes.resize(std::min(processes.size(), ctx_.config->params.z));
  ctx_.env->send({.kind = MsgKind::kNewProcessGive, .from = ctx_.self,
                  .to = msg.from, .answer_topic = ctx_.topic,
                  .processes = processes});
}

void DamNode::handle_new_process_give(const Message& msg) {
  // Fig. 6 lines 6–9: merge fresh superprocesses.
  if (!better_or_equal_super(msg.answer_topic)) return;
  super_table_.merge(ctx_, msg.answer_topic, msg.processes, alive_probe());
}

void DamNode::handle_membership(const Message& msg) {
  if (msg.answer_topic == ctx_.topic) {
    pull_group_size();  // the view capacity bounds the merge
    membership_.on_membership(msg);
  }
  // Recovery: request events the digest shows we are missing. Digests only
  // travel within a group, so everything advertised is of interest here.
  if (recovery_ && !msg.event_ids.empty()) {
    std::vector<EventId> missing;
    for (const net::EventId& id : msg.event_ids) {
      if (!ctx_.env->seen(ctx_.self, id)) missing.push_back(id);
    }
    if (!missing.empty()) {
      ++recovery_->requests_sent;
      ctx_.env->send({.kind = MsgKind::kEventRequest, .from = ctx_.self,
                      .to = msg.from, .event_ids = missing});
    }
  }
  // Piggybacked supertopic table (Sec. V-A.2a): adopt contacts for our
  // (nearest) supergroup discovered by peers.
  if (msg.piggyback_topic && !msg.piggyback_super_table.empty() &&
      better_or_equal_super(*msg.piggyback_topic)) {
    // The piggyback can satisfy the bootstrap search too.
    if (bootstrap_.active()) bootstrap_.on_answer(ctx_, *msg.piggyback_topic);
    super_table_.merge(ctx_, *msg.piggyback_topic, msg.piggyback_super_table,
                       alive_probe());
  }
}

void DamNode::maintain_links(sim::Round now) {
  if (is_root()) return;
  const TopicParams& params = ctx_.config->params;
  if (super_table_.empty()) {
    // Fig. 6 lines 12–14: nothing to maintain; (re)start the search.
    if (!bootstrap_.active()) {
      bootstrap_.start(ctx_, now);
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
    ctx_.env->send(
        {.kind = MsgKind::kNewProcessAsk, .from = ctx_.self, .to = target});
  }
  if (super_table_.empty() && !bootstrap_.active()) {
    // Every superprocess failed: fall back to the full search.
    bootstrap_.start(ctx_, now);
  }
}

void DamNode::handle_event_request(const Message& msg) {
  if (!recovery_) return;
  for (const net::EventId& wanted : msg.event_ids) {
    for (const StoredEvent& stored : recovery_->history) {
      if (stored.event != wanted) continue;
      // No body handle: the transport interns the stored payload anew.
      ++recovery_->retransmissions_sent;
      ctx_.env->send({.kind = MsgKind::kEvent, .from = ctx_.self,
                      .to = msg.from, .topic = stored.topic,
                      .event = stored.event, .payload = stored.payload});
      break;
    }
  }
}

void DamNode::remember_history(const Message& event_msg) {
  if (!recovery_) return;
  auto& history = recovery_->history;
  history.push_back({event_msg.topic, event_msg.event,
                     {event_msg.payload.begin(), event_msg.payload.end()}});
  if (history.size() > ctx_.config->recovery.history_size) history.pop_front();
}

bool DamNode::better_or_equal_super(TopicId candidate) const {
  if (candidate == ctx_.topic) return false;
  if (!ctx_.hierarchy->includes(candidate, ctx_.topic)) {
    return false;  // not a super
  }
  const auto current = super_table_.super_topic();
  if (!current) return true;
  // Deeper supertopics are closer to the direct supertopic — prefer them.
  return ctx_.hierarchy->depth(candidate) >= ctx_.hierarchy->depth(*current);
}

}  // namespace dam::core

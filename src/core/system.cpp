#include "core/system.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <new>
#include <span>
#include <stdexcept>

#include "util/parallel.hpp"

namespace dam::core {

namespace {

/// Joiners per spawn-fill task. Fixed, so the chunk grid — and with it
/// every joiner's stream — never depends on the worker count.
constexpr std::size_t kSpawnChunk = 512;

/// Fork salt of the per-batch row-fill stream.
constexpr std::uint64_t kSpawnBatchSalt = 0x5BA7C4ULL;

/// Look-ahead distances of the delivery and round loops, in messages or
/// nodes: stage 1 (the node object) runs kWarmAhead steps ahead, stage 2
/// (the rows its views read) kStateDelay steps after stage 1, so it reads
/// row pointers the object's lines have brought in by then.
constexpr std::size_t kWarmAhead = net::Transport::kLookahead;
constexpr std::size_t kStateDelay = 4;
static_assert(kStateDelay < kWarmAhead);

/// The two look-ahead stages over a stream of node ids. Each id gets
/// stage 1 when it is fed and stage 2 kStateDelay feeds later; ids past
/// the last node are skipped. A hint only: changes no node.
template <typename Nodes>
class TwoStageWarm {
 public:
  explicit TwoStageWarm(const Nodes& nodes) : nodes_(nodes) {
    pending_.fill(kNone);
  }

  void operator()(std::size_t id) {
    if (id < nodes_.size()) nodes_[id].prefetch();
    const std::size_t ready = pending_[next_];
    if (ready < nodes_.size()) nodes_[ready].prefetch_state();
    pending_[next_] = id;
    next_ = (next_ + 1) % kStateDelay;
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const Nodes& nodes_;
  std::array<std::size_t, kStateDelay> pending_;
  std::size_t next_ = 0;
};
}  // namespace

DamSystem::DamSystem(const topics::TopicDag& hierarchy, Config config)
    : hierarchy_(&hierarchy),
      config_(config),
      rng_(config.seed),
      registry_(hierarchy),
      // failures_ is declared (and therefore initialized) before
      // transport_, so handing its pointer to the transport here is safe.
      failures_(std::make_unique<sim::NoFailures>()),
      // The channel's quality is the protocol parameter psucc: one knob
      // controls both.
      transport_(config.node.params.psucc, rng_.fork(0x7A4),
                 failures_.get()) {}

DamSystem::~DamSystem() = default;

namespace {
constexpr std::align_val_t kChunkAlignment{64};
}  // namespace

DamSystem::NodeSlab::~NodeSlab() {
  for (std::size_t id = 0; id < size_; ++id) (*this)[id].~DamNode();
  for (DamNode* chunk : chunks_) ::operator delete(chunk, kChunkAlignment);
}

DamNode& DamSystem::NodeSlab::emplace_back(const NodeContext& context,
                                           std::size_t group_size_estimate,
                                           util::Rng rng) {
  if (size_ == chunks_.size() * kNodesPerChunk) {
    chunks_.reserve(chunks_.size() + 1);  // the push_back cannot throw now
    chunks_.push_back(static_cast<DamNode*>(::operator new(
        kNodesPerChunk * sizeof(DamNode), kChunkAlignment)));
  }
  // Counted only once constructed: a throwing constructor leaves the slot
  // free.
  DamNode* node = new (&(*this)[size_])
      DamNode(context, group_size_estimate, rng);
  ++size_;
  return *node;
}

DamNode& DamSystem::NodeSlab::at(std::size_t id) {
  if (id >= size_) throw std::out_of_range("DamSystem: no such process");
  return (*this)[id];
}

const DamNode& DamSystem::NodeSlab::at(std::size_t id) const {
  if (id >= size_) throw std::out_of_range("DamSystem: no such process");
  return (*this)[id];
}

ProcessId DamSystem::spawn(TopicId topic) {
  const ProcessId id = registry_.add_process(topic);
  // Grow the bootstrap overlay to cover the new process.
  while (neighborhood_.process_count() < registry_.process_count()) {
    neighborhood_.add_process(config_.neighborhood_degree, rng_);
  }
  const std::size_t group_size = registry_.group_size(topic);
  // The node forks its stream before the contact draws below advance rng_.
  DamNode& node =
      nodes_.emplace_back(context_for(id, topic), group_size,
                          rng_.fork(id.value));

  // Join contacts: a few random existing members of the same group — the
  // members before the joiner, which the registry appends last.
  const std::span<const ProcessId> group = registry_.group(topic);
  assert(group.back() == id);
  const auto contacts =
      rng_.sample(group.first(group.size() - 1),
                  config_.node.params.view_capacity(group_size));

  std::vector<ProcessId> super_contacts;
  std::optional<TopicId> super_contacts_topic;
  if (config_.auto_wire_super_tables) {
    if (auto super = registry_.nearest_nonempty_supergroup(topic)) {
      super_contacts = rng_.sample(registry_.group(*super),
                                   config_.node.params.z);
      super_contacts_topic = *super;
    }
  }

  node.subscribe(contacts, super_contacts, super_contacts_topic);
  return id;
}

std::vector<ProcessId> DamSystem::spawn_group(TopicId topic,
                                              std::size_t count) {
  std::vector<ProcessId> ids;
  ids.reserve(count);
  if (count == 0) return ids;

  // Batch wiring: joiners draw INDICES into their join-time snapshot (the
  // initial members, then the earlier batch joiners in join order), and
  // the supergroup lookup happens once per batch. Spawning S members costs
  // O(S·view).
  const std::vector<ProcessId> candidates(registry_.group(topic));
  // The supergroup cannot change while this batch only grows `topic`.
  std::optional<TopicId> super_topic;
  if (config_.auto_wire_super_tables) {
    super_topic = registry_.nearest_nonempty_supergroup(topic);
  }
  std::vector<ProcessId> super_pool;
  std::size_t super_width = 0;
  if (super_topic) {
    super_pool = registry_.group(*super_topic);
    super_width = std::min(config_.node.params.z, super_pool.size());
  }

  const std::size_t initial = candidates.size();
  const std::size_t final_size = initial + count;
  const std::size_t view_slots =
      std::min(config_.node.params.view_capacity(final_size), final_size - 1);

  // Two phases:
  //
  //   A (serial)   register every joiner and wire its node — the only
  //                steps that consume rng_ (neighborhood growth) or
  //                mutate shared engine state.
  //   B (parallel) sample each joiner's rows and subscribe it, which
  //                writes the rows into the node's own storage. Joiner i
  //                draws from its own stream batch_base.fork(i), a pure
  //                function of (seed, batch, i), so the rows are
  //                bit-identical for every threads value. A non-root
  //                joiner without super contacts floods FIND_SUPER_CONTACT
  //                through the transport at subscription, so such a batch
  //                runs on this thread alone, in join order.
  const std::size_t first_node = nodes_.size();
  for (std::size_t i = 0; i < count; ++i) {
    const ProcessId id = registry_.add_process(topic);
    ids.push_back(id);
    while (neighborhood_.process_count() < registry_.process_count()) {
      neighborhood_.add_process(config_.neighborhood_degree, rng_);
    }
    nodes_.emplace_back(context_for(id, topic), initial + i + 1,
                        rng_.fork(id.value));
  }

  const util::Rng batch_base = rng_.fork(kSpawnBatchSalt);
  const bool floods = super_width == 0 && !hierarchy_->is_root(topic);
  const std::size_t chunk_count = (count + kSpawnChunk - 1) / kSpawnChunk;
  std::vector<std::size_t> chunk_entries(chunk_count, 0);
  util::run_parallel(
      chunk_count, floods ? 1 : config_.threads, [&](std::size_t chunk) {
        std::vector<std::uint32_t> scratch;
        std::vector<ProcessId> row;
        std::vector<ProcessId> super_row;
        const std::size_t hi = std::min(count, (chunk + 1) * kSpawnChunk);
        for (std::size_t i = chunk * kSpawnChunk; i < hi; ++i) {
          util::Rng joiner_rng = batch_base.fork(i);
          const std::size_t width =
              std::min(config_.node.params.view_capacity(initial + i + 1),
                       initial + i);
          scratch.resize(std::max(width, super_width));
          // width <= initial + i, so Floyd fills exactly `width` slots.
          const std::size_t drawn =
              joiner_rng.draw_distinct_below(initial + i, width, scratch.data());
          assert(drawn == width);
          chunk_entries[chunk] += drawn;
          row.resize(drawn);
          for (std::size_t e = 0; e < drawn; ++e) {
            const std::size_t idx = scratch[e];
            row[e] = idx < initial ? candidates[idx] : ids[idx - initial];
          }
          super_row.clear();
          if (super_width > 0) {
            const std::size_t super_drawn = joiner_rng.draw_distinct_below(
                super_pool.size(), config_.node.params.z, scratch.data());
            assert(super_drawn == super_width);
            for (std::size_t e = 0; e < super_drawn; ++e) {
              super_row.push_back(super_pool[scratch[e]]);
            }
          }
          nodes_[first_node + i].subscribe(row, super_row, super_topic,
                                           view_slots);
        }
      });

  // The logical CSR bytes of the batch's rows (see view_arena_bytes()).
  std::size_t topic_entries = 0;
  for (const std::size_t entries : chunk_entries) topic_entries += entries;
  const std::size_t super_rows = super_topic ? count : 0;
  view_arena_bytes_ += (count + 1 + super_rows + 1) * sizeof(std::uint32_t) +
                       (topic_entries + super_rows * super_width) *
                           sizeof(ProcessId);
  return ids;
}

void DamSystem::set_failure_model(std::unique_ptr<sim::FailureModel> model) {
  failures_ = std::move(model);
  // Pointer swap only: rebuilding the transport here used to drop every
  // in-flight message — including the bootstrap floods nodes send at
  // spawn time — silently costing cold-start runs a full retry timeout.
  transport_.set_failure_model(failures_.get());
}

void DamSystem::run_rounds(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const sim::Round round = clock_.now();
    // Receivers are random nodes, so each delivery would otherwise stall
    // on its node's cache misses; the transport feeds every target to the
    // look-ahead kWarmAhead messages early.
    TwoStageWarm delivery_warm(nodes_);
    transport_.deliver_round(
        round,
        [this, round](const Message& msg) {
          if (msg.to.value >= nodes_.size()) return;
          // The transport delivers only what FailureModel::deliverable
          // passed, which implies the target is alive: no second probe.
          assert(failures_->alive(msg.to, round));
          (void)round;
          nodes_[msg.to.value].on_message(msg);
        },
        [&delivery_warm](ProcessId to) { delivery_warm(to.value); });
    // The slab is a linear stream, but each node's view rows are not.
    const std::size_t n = nodes_.size();
    TwoStageWarm tick_warm(nodes_);
    for (std::size_t id = 0; id < std::min(kWarmAhead, n); ++id) {
      tick_warm(id);
    }
    for (std::size_t id = 0; id < n; ++id) {
      if (id + kWarmAhead < n) tick_warm(id + kWarmAhead);
      DamNode& node = nodes_[id];
      if (failures_->alive(node.self(), round)) node.round(round);
    }
    release_columns(round);
    clock_.tick();
  }
}

net::EventId DamSystem::publish(ProcessId publisher,
                                std::vector<std::uint8_t> payload) {
  DamNode& source = node(publisher);
  const net::EventId event = source.publish(std::move(payload));
  // The publisher marked the event seen, which opened its column.
  SeenColumn& column = columns_[column_of_.at(event)];
  column.published = true;
  column.topic = source.topic();
  column.watermark = registry_.process_count();
  // The publisher's own (synchronous, latency-0) delivery happened inside
  // DamNode::publish, before the event id existed for the metrics; the
  // publish note records it so latency aggregates cover every first
  // delivery.
  metrics_.note_publish(event, clock_.now());
  if (trace_ != nullptr) {
    sim::TraceEntry entry;
    entry.round = clock_.now();
    entry.kind = sim::TraceKind::kPublish;
    entry.from = publisher;
    entry.to = publisher;
    entry.topic = source.topic();
    entry.publisher = event.publisher;
    entry.sequence = event.sequence;
    trace_->record(entry);
  }
  return event;
}

std::uint32_t DamSystem::send(const Message& msg,
                              std::span<const ProcessId> targets) {
  if (targets.empty()) return msg.body;
  // Account the fan-out against the sender's group, by kind, once.
  const TopicId sender_topic = registry_.topic_of(msg.from);
  const sim::Round now = clock_.now();
  const std::size_t copies = targets.size();
  if (msg.kind != MsgKind::kEvent) {
    metrics_.note_control_send(now, sender_topic, copies);
  } else if (msg.intergroup) {
    metrics_.note_inter_send(
        now, sender_topic, registry_.nearest_nonempty_supergroup(sender_topic),
        copies);
  } else {
    metrics_.note_intra_send(now, sender_topic, copies);
  }
  if (trace_ != nullptr) {
    sim::TraceEntry entry;
    entry.round = now;
    entry.kind = msg.kind == MsgKind::kEvent
                     ? (msg.intergroup ? sim::TraceKind::kInterSend
                                       : sim::TraceKind::kEventSend)
                     : sim::TraceKind::kControlSend;
    entry.from = msg.from;
    entry.topic = msg.kind == MsgKind::kEvent ? msg.topic : sender_topic;
    entry.publisher = msg.event.publisher;
    entry.sequence = msg.event.sequence;
    for (const ProcessId target : targets) {
      entry.to = target;
      trace_->record(entry);
    }
  }
  return transport_.send(msg, targets, now);
}

std::size_t DamSystem::group_size(TopicId topic) const {
  return registry_.group_size(topic);
}

const std::vector<ProcessId>& DamSystem::neighborhood(ProcessId self) const {
  return neighborhood_.neighbors(self);
}

bool DamSystem::probe_alive(ProcessId target) const {
  return failures_->alive(target, clock_.now());
}

void DamSystem::deliver(ProcessId self, const Message& event_msg) {
  // Called once per first mark, so the event's column is open. The
  // publisher's synchronous self-delivery fires inside DamNode::publish,
  // BEFORE DamSystem::publish registers the publication — it is never a
  // retired event, whatever its column says.
  const bool self_publish =
      event_msg.from == self && event_msg.event.publisher == self;
  if (retired_events_ > 0 && !self_publish) {
    SeenColumn& column = columns_[column_of_.at(event_msg.event)];
    if (!column.live()) {
      // A copy of an already-retired publication reached a process that
      // had not seen it: harmless duplicate traffic, excluded from the
      // live counters so harvested aggregates stay frozen. If the copy
      // re-opened a released column, that column is retired too.
      ++retired_deliveries_;
      column.retired = true;
      return;
    }
  }
  if (registry_.interested_in(self, event_msg.topic)) {
    metrics_.note_event_delivery(event_msg.event, clock_.now());
  } else {
    // Never expected for daMulticast — the property tests assert on this.
    metrics_.count_parasite_delivery();
  }
  if (trace_ != nullptr) {
    sim::TraceEntry entry;
    entry.round = clock_.now();
    entry.kind = sim::TraceKind::kDeliver;
    entry.from = event_msg.from;
    entry.to = self;
    entry.topic = event_msg.topic;
    entry.publisher = event_msg.event.publisher;
    entry.sequence = event_msg.event.sequence;
    trace_->record(entry);
  }
  if (delivery_handler_) delivery_handler_(self, event_msg);
}

bool DamSystem::mark_seen(ProcessId self, net::EventId event) {
  const auto [it, opened] = column_of_.try_emplace(event, 0);
  const std::size_t width = (nodes_.size() + 63) / 64;
  if (opened) {
    if (free_columns_.empty()) {
      free_columns_.push_back(static_cast<std::uint32_t>(columns_.size()));
      columns_.emplace_back();
    }
    it->second = free_columns_.back();
    free_columns_.pop_back();
    SeenColumn& column = columns_[it->second];
    column.event = event;
    column.first_mark = clock_.now();
    column.open = true;
    column.published = false;
    column.retired = false;
    column.count = 0;
    column.words.assign(width, 0);
  }
  SeenColumn& column = columns_[it->second];
  const std::size_t word = self.value / 64;
  // A process spawned after the first mark widens the column.
  if (word >= column.words.size()) {
    column.words.resize(std::max(word + 1, width), 0);
  }
  const std::uint64_t bit = std::uint64_t{1} << (self.value % 64);
  if ((column.words[word] & bit) != 0) return false;
  column.words[word] |= bit;
  ++column.count;
  return true;
}

bool DamSystem::seen(ProcessId self, net::EventId event) const {
  const auto it = column_of_.find(event);
  return it != column_of_.end() &&
         DeliveredView(columns_[it->second].words, 0).contains(self);
}

void DamSystem::release_columns(sim::Round now) {
  const std::size_t horizon = config_.node.seen_gc_horizon;
  if (horizon == 0) return;
  for (std::uint32_t slot = 0; slot < columns_.size(); ++slot) {
    SeenColumn& column = columns_[slot];
    if (!column.open || !column.retired || now < column.first_mark + horizon) {
      continue;
    }
    column_of_.erase(column.event);
    column.open = false;
    free_columns_.push_back(slot);
  }
}

DamSystem::BookkeepingGauges DamSystem::bookkeeping_gauges() const {
  BookkeepingGauges gauges;
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    gauges.request_bytes +=
        nodes_[id].request_set_size() * sizeof(std::uint64_t);
  }
  for (const SeenColumn& column : columns_) {
    if (column.open) {
      gauges.seen_bytes += column.words.size() * sizeof(std::uint64_t);
    }
  }
  return gauges;
}

DamSystem::DeliveredView DamSystem::delivered_set(net::EventId event) const {
  const auto it = column_of_.find(event);
  if (it == column_of_.end()) return {};
  const SeenColumn& column = columns_[it->second];
  if (column.retired) return {};
  return {column.words, column.count};
}

double DamSystem::delivery_ratio(net::EventId event) const {
  const auto it = column_of_.find(event);
  if (it == column_of_.end()) return 0.0;
  const SeenColumn& column = columns_[it->second];
  if (!column.live()) return 0.0;
  const DeliveredView delivered(column.words, column.count);
  std::size_t alive_interested = 0;
  std::size_t alive_delivered = 0;
  const sim::Round round = clock_.now();
  // The interested processes at publish: the chain groups' members below
  // the watermark (each group is in ascending id order).
  for (const TopicId topic : hierarchy_->chain_to_root(column.topic)) {
    for (const ProcessId p : registry_.group(topic)) {
      if (p.value >= column.watermark) break;
      if (!failures_->alive(p, round)) continue;
      ++alive_interested;
      if (delivered.contains(p)) ++alive_delivered;
    }
  }
  if (alive_interested == 0) return 1.0;
  return static_cast<double>(alive_delivered) /
         static_cast<double>(alive_interested);
}

void DamSystem::retire_event(net::EventId event) {
  ++retired_events_;
  const auto column = column_of_.find(event);
  if (column != column_of_.end()) columns_[column->second].retired = true;
}

}  // namespace dam::core

#include "net/transport.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "core/protocol.hpp"

namespace dam::net {

// The channel coin is the protocol kernel's — one definition of the psucc
// law for every engine (see core/protocol.hpp).
using core::protocol::channel_delivers;

// --- EventBodyPool ---------------------------------------------------------

// A delivered view's payload span points into its Body's heap block, which
// must survive the entries_ growth a send during the callback may cause.
static_assert(std::is_nothrow_move_constructible_v<EventBodyPool::Body>);

std::uint32_t EventBodyPool::acquire(const Message& msg) {
  std::uint32_t id;
  if (!spare_.empty()) {
    id = spare_.back();
    spare_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  Body& body = entries_[id];
  body.topic = msg.topic;
  body.event = msg.event;
  body.payload.assign(msg.payload.begin(), msg.payload.end());
  body.encoded_size = encoded_size(msg);  // memoized once per publication
  body.refs = 1;
  ++live_;
  bytes_ += sizeof(Body) + body.payload.size();
  return id;
}

void EventBodyPool::release(std::uint32_t id) {
  Body& body = entries_[id];
  if (--body.refs > 0) return;
  bytes_ -= sizeof(Body) + body.payload.size();
  --live_;
  // Move-assign to free the heap block: `= {}` would pick the
  // initializer_list overload, which only clears.
  body.payload = std::vector<std::uint8_t>();
  spare_.push_back(id);
}

// --- Transport -------------------------------------------------------------

void Transport::note_high_water() {
  const std::size_t bytes = queue_bytes();
  stats_.peak_queue_bytes = std::max(stats_.peak_queue_bytes, bytes);
  window_peak_bytes_ = std::max(window_peak_bytes_, bytes);
  stats_.peak_queue_records =
      std::max<std::uint64_t>(stats_.peak_queue_records, queued_records_);
}

std::size_t Transport::take_window_peak() noexcept {
  // The footprint only grows on send (where note_high_water ratchets the
  // window), so max(window, current) covers both a quiet window and bytes
  // still in flight at the boundary.
  const std::size_t current = queue_bytes();
  const std::size_t peak = std::max(window_peak_bytes_, current);
  window_peak_bytes_ = current;
  return peak;
}

std::size_t Transport::queue_bytes() const noexcept {
  return bodies_.bytes() + slab_bytes_;
}

std::uint32_t Transport::send(const Message& msg, sim::Round now) {
  const sim::Round due = now + 1;
  RoundSlab& slab = slabs_[due % 2];
  if (slab.due != due) {
    if (!slab.records.empty()) {
      throw std::logic_error(
          "Transport::send: the slab of round " + std::to_string(slab.due) +
          " was never delivered");
    }
    slab.due = due;
  }
  ++stats_.sent;
  const std::size_t slab_bytes_before = slab.bytes();
  Record rec;
  rec.from = msg.from;
  rec.to = msg.to;
  rec.sent_at = now;
  rec.kind = msg.kind;
  if (msg.kind == MsgKind::kEvent) {
    rec.flags = msg.intergroup ? 1 : 0;
    rec.ref = msg.body == kNoBody ? bodies_.acquire(msg)
                                  : bodies_.retain(msg.body);
    // The hot fan-out path: the wire size was computed once when the body
    // was interned; every further copy of the publication reuses it.
    stats_.bytes_sent += bodies_[rec.ref].encoded_size;
  } else {
    stats_.bytes_sent += encoded_size(msg);
    ControlExtra extra;
    extra.origin = msg.origin;
    extra.request_id = msg.request_id;
    extra.ttl = msg.ttl;
    extra.answer_topic = msg.answer_topic;
    extra.pid_off = static_cast<std::uint32_t>(slab.pids.size());
    extra.pid_len = static_cast<std::uint32_t>(msg.processes.size());
    slab.pids.insert(slab.pids.end(), msg.processes.begin(),
                     msg.processes.end());
    if (msg.piggyback_topic.has_value()) {
      extra.has_piggyback = true;
      extra.piggyback_topic = *msg.piggyback_topic;
      extra.pig_off = static_cast<std::uint32_t>(slab.pids.size());
      extra.pig_len =
          static_cast<std::uint32_t>(msg.piggyback_super_table.size());
      slab.pids.insert(slab.pids.end(), msg.piggyback_super_table.begin(),
                       msg.piggyback_super_table.end());
    }
    extra.tid_off = static_cast<std::uint32_t>(slab.tids.size());
    extra.tid_len = static_cast<std::uint32_t>(msg.init_msg.size());
    slab.tids.insert(slab.tids.end(), msg.init_msg.begin(),
                     msg.init_msg.end());
    extra.eid_off = static_cast<std::uint32_t>(slab.eids.size());
    extra.eid_len = static_cast<std::uint32_t>(msg.event_ids.size());
    slab.eids.insert(slab.eids.end(), msg.event_ids.begin(),
                     msg.event_ids.end());
    rec.ref = static_cast<std::uint32_t>(slab.extras.size());
    slab.extras.push_back(extra);
  }
  slab.records.push_back(rec);
  slab_bytes_ += slab.bytes() - slab_bytes_before;
  ++queued_records_;
  note_high_water();
  return rec.kind == MsgKind::kEvent ? rec.ref : kNoBody;
}

Message Transport::view(const Record& rec, const RoundSlab& slab) const {
  Message msg;
  msg.kind = rec.kind;
  msg.from = rec.from;
  msg.to = rec.to;
  msg.sent_at = rec.sent_at;
  if (rec.kind == MsgKind::kEvent) {
    const EventBodyPool::Body& body = bodies_[rec.ref];
    msg.topic = body.topic;
    msg.event = body.event;
    msg.intergroup = (rec.flags & 1) != 0;
    msg.payload = body.payload;
    msg.body = rec.ref;
    return msg;
  }
  const ControlExtra& extra = slab.extras[rec.ref];
  msg.origin = extra.origin;
  msg.request_id = extra.request_id;
  msg.ttl = extra.ttl;
  msg.answer_topic = extra.answer_topic;
  msg.processes = std::span(slab.pids).subspan(extra.pid_off, extra.pid_len);
  if (extra.has_piggyback) {
    msg.piggyback_topic = extra.piggyback_topic;
    msg.piggyback_super_table =
        std::span(slab.pids).subspan(extra.pig_off, extra.pig_len);
  }
  msg.init_msg = std::span(slab.tids).subspan(extra.tid_off, extra.tid_len);
  msg.event_ids = std::span(slab.eids).subspan(extra.eid_off, extra.eid_len);
  return msg;
}

void Transport::deliver_round(
    sim::Round round, const std::function<void(const Message&)>& sink,
    const std::function<void(ProcessId)>& warm) {
  RoundSlab& slot = slabs_[round % 2];
  if (slot.due != round || slot.records.empty()) return;
  // Move the batch out before invoking handlers: handlers send new
  // messages, which must land in the next round's slab, never this batch.
  RoundSlab slab = std::move(slot);
  queued_records_ -= slab.records.size();
  slab_bytes_ -= slab.bytes();
  const std::size_t count = slab.records.size();
  if (warm) {
    for (std::size_t i = 0; i < std::min(kLookahead, count); ++i) {
      warm(slab.records[i].to);
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    const Record& rec = slab.records[i];
    if (warm && i + kLookahead < count) warm(slab.records[i + kLookahead].to);
    if (!channel_delivers(psucc_, rng_)) {
      ++stats_.lost_channel;
      if (rec.kind == MsgKind::kEvent) bodies_.release(rec.ref);
      continue;
    }
    if (failures_ != nullptr &&
        !failures_->deliverable(rec.from, rec.to, round, rng_)) {
      ++stats_.lost_failure;
      if (rec.kind == MsgKind::kEvent) bodies_.release(rec.ref);
      continue;
    }
    ++stats_.delivered;
    // The slab was moved out of its slot, so sends the sink makes land in
    // the other slab and never move the arenas this view reads.
    sink(view(rec, slab));
    // Release AFTER the sink: the view reads the body, and fan-out sends
    // the sink makes retain it through the view's handle.
    if (rec.kind == MsgKind::kEvent) bodies_.release(rec.ref);
  }
  assert(slot.records.empty() && "a send during delivery reached its slab");
  slab.clear();
  slot = std::move(slab);
}

}  // namespace dam::net

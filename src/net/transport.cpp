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

std::uint32_t Transport::send(const Message& msg,
                              std::span<const ProcessId> targets,
                              sim::Round now) {
  if (targets.empty()) return msg.body;
  const bool event = msg.kind == MsgKind::kEvent;
  const bool piggyback = !event && msg.piggyback_topic.has_value();
  if (!event && (msg.processes.size() > kMaxList ||
                 (piggyback && msg.piggyback_super_table.size() > kMaxList))) {
    throw std::length_error(
        "Transport::send: a control list is longer than " +
        std::to_string(kMaxList) + " ids");
  }
  const sim::Round due = now + 1;
  RoundSlab& slab = slabs_[due % 2];
  if (slab.due != due) {
    if (!slab.runs.empty()) {
      throw std::logic_error(
          "Transport::send: the slab of round " + std::to_string(slab.due) +
          " was never delivered");
    }
    slab.due = due;
  }
  const std::size_t copies = targets.size();
  const std::size_t slab_bytes_before = slab.bytes();
  Run run;
  run.from = msg.from;
  run.kind = msg.kind;
  if (event) {
    run.flags = msg.intergroup ? kIntergroup : 0;
    run.ref = msg.body == kNoBody ? bodies_.acquire(msg)
                                  : bodies_.retain(msg.body);
    // The hot fan-out path: the wire size was computed once when the body
    // was interned; every further copy of the publication reuses it.
    stats_.bytes_sent += copies * bodies_[run.ref].encoded_size;
  } else {
    stats_.bytes_sent += copies * encoded_size(msg);
    Control control;
    control.answer_topic = msg.answer_topic;
    control.pid_off = static_cast<std::uint32_t>(slab.pids.size());
    control.pid_len = static_cast<std::uint16_t>(msg.processes.size());
    slab.pids.insert(slab.pids.end(), msg.processes.begin(),
                     msg.processes.end());
    if (piggyback) {
      run.flags = kPiggyback;
      control.piggyback_topic = *msg.piggyback_topic;
      control.pig_len =
          static_cast<std::uint16_t>(msg.piggyback_super_table.size());
      slab.pids.insert(slab.pids.end(), msg.piggyback_super_table.begin(),
                       msg.piggyback_super_table.end());
    }
    if (msg.origin != ProcessId{} || msg.request_id != 0 || msg.ttl != 0 ||
        !msg.init_msg.empty() || !msg.event_ids.empty()) {
      ControlTail tail;
      tail.origin = msg.origin;
      tail.request_id = msg.request_id;
      tail.ttl = msg.ttl;
      tail.tid_off = static_cast<std::uint32_t>(slab.tids.size());
      tail.tid_len = static_cast<std::uint32_t>(msg.init_msg.size());
      slab.tids.insert(slab.tids.end(), msg.init_msg.begin(),
                       msg.init_msg.end());
      tail.eid_off = static_cast<std::uint32_t>(slab.eids.size());
      tail.eid_len = static_cast<std::uint32_t>(msg.event_ids.size());
      slab.eids.insert(slab.eids.end(), msg.event_ids.begin(),
                       msg.event_ids.end());
      control.tail = static_cast<std::uint32_t>(slab.tails.size());
      slab.tails.push_back(tail);
    }
    run.ref = static_cast<std::uint32_t>(slab.controls.size());
    slab.controls.push_back(control);
  }
  // Each header of a split run holds its own body reference; its control
  // headers share the one Control.
  for (std::size_t first = 0; first < copies; first += kMaxRun) {
    if (first > 0 && event) bodies_.retain(run.ref);
    run.count = static_cast<std::uint16_t>(std::min(kMaxRun, copies - first));
    slab.runs.push_back(run);
  }
  slab.targets.insert(slab.targets.end(), targets.begin(), targets.end());
  stats_.sent += copies;
  slab_bytes_ += slab.bytes() - slab_bytes_before;
  queued_records_ += copies;
  note_high_water();
  return event ? run.ref : kNoBody;
}

Message Transport::view(const Run& run, const RoundSlab& slab) const {
  Message msg;
  msg.kind = run.kind;
  msg.from = run.from;
  if (run.kind == MsgKind::kEvent) {
    const EventBodyPool::Body& body = bodies_[run.ref];
    msg.topic = body.topic;
    msg.event = body.event;
    msg.intergroup = (run.flags & kIntergroup) != 0;
    msg.payload = body.payload;
    msg.body = run.ref;
    return msg;
  }
  const Control& control = slab.controls[run.ref];
  msg.answer_topic = control.answer_topic;
  const auto lists = std::span(slab.pids).subspan(
      control.pid_off, control.pid_len + control.pig_len);
  msg.processes = lists.first(control.pid_len);
  if ((run.flags & kPiggyback) != 0) {
    msg.piggyback_topic = control.piggyback_topic;
    msg.piggyback_super_table = lists.last(control.pig_len);
  }
  if (control.tail != kNoTail) {
    const ControlTail& tail = slab.tails[control.tail];
    msg.origin = tail.origin;
    msg.request_id = tail.request_id;
    msg.ttl = tail.ttl;
    msg.init_msg = std::span(slab.tids).subspan(tail.tid_off, tail.tid_len);
    msg.event_ids = std::span(slab.eids).subspan(tail.eid_off, tail.eid_len);
  }
  return msg;
}

void Transport::deliver_round(
    sim::Round round, const std::function<void(const Message&)>& sink,
    const std::function<void(ProcessId)>& warm) {
  RoundSlab& slot = slabs_[round % 2];
  if (slot.due != round || slot.runs.empty()) return;
  // Move the batch out before invoking handlers: handlers send new
  // messages, which must land in the next round's slab, never this batch.
  RoundSlab slab = std::move(slot);
  const std::size_t count = slab.targets.size();
  queued_records_ -= count;
  slab_bytes_ -= slab.bytes();
  if (warm) {
    for (std::size_t i = 0; i < std::min(kLookahead, count); ++i) {
      warm(slab.targets[i]);
    }
  }
  std::size_t next = 0;  // the next copy: an index into slab.targets
  for (const Run& run : slab.runs) {
    // The slab was moved out of its slot, so sends the sink makes land in
    // the other slab and never move the arenas this view reads.
    Message msg = view(run, slab);
    for (const std::size_t end = next + run.count; next < end; ++next) {
      if (warm && next + kLookahead < count) {
        warm(slab.targets[next + kLookahead]);
      }
      msg.to = slab.targets[next];
      if (!channel_delivers(psucc_, rng_)) {
        ++stats_.lost_channel;
        continue;
      }
      if (failures_ != nullptr &&
          !failures_->deliverable(run.from, msg.to, round, rng_)) {
        ++stats_.lost_failure;
        continue;
      }
      ++stats_.delivered;
      sink(msg);
    }
    // Release AFTER the run's last target: every copy's view reads the
    // body, and fan-out sends the sink makes retain it through the view's
    // handle.
    if (run.kind == MsgKind::kEvent) bodies_.release(run.ref);
  }
  assert(slot.runs.empty() && "a send during delivery reached its slab");
  slab.clear();
  slot = std::move(slab);
}

}  // namespace dam::net

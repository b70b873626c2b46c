#include "util/timeline.hpp"

#include <algorithm>

namespace dam::util {

Timeline::Counters& Timeline::Counters::operator+=(
    const Counters& other) noexcept {
  deliveries += other.deliveries;
  publishes += other.publishes;
  event_sends += other.event_sends;
  inter_sends += other.inter_sends;
  control_sends += other.control_sends;
  joins += other.joins;
  leaves += other.leaves;
  crashes += other.crashes;
  recovers += other.recovers;
  return *this;
}

Timeline::Counters& Timeline::row_for(std::uint64_t round) {
  if (round >= rounds_.size()) {
    rounds_.resize(round + 1);
    // Keep the windows covering every row, so windows() is the window grid.
    (void)window_for(round);
  }
  return rounds_[round];
}

Timeline::Window& Timeline::window_for(std::uint64_t round) {
  const std::size_t index = window_index(round);
  if (index >= windows_.size()) {
    windows_.resize(index + 1);
  }
  return windows_[index];
}

Timeline::Counters Timeline::window_counters(
    std::size_t window) const noexcept {
  Counters sum;
  const std::size_t begin = std::min(window * kWindowRounds, rounds_.size());
  const std::size_t end = std::min(begin + kWindowRounds, rounds_.size());
  for (std::size_t round = begin; round < end; ++round) sum += rounds_[round];
  return sum;
}

Timeline::Counters Timeline::totals() const noexcept {
  Counters sum;
  for (const Counters& row : rounds_) sum += row;
  return sum;
}

std::vector<std::uint64_t> Timeline::per_round(
    std::uint64_t Counters::*counter) const {
  std::size_t length = rounds_.size();
  while (length > 0 && rounds_[length - 1].*counter == 0) --length;
  std::vector<std::uint64_t> series(length);
  for (std::size_t round = 0; round < length; ++round) {
    series[round] = rounds_[round].*counter;
  }
  return series;
}

void Timeline::note_delivery(std::uint64_t round, double latency,
                             std::uint64_t weight) {
  if (weight == 0) {
    return;
  }
  row_for(round).deliveries += weight;
  window_for(round).latency.add(latency, weight);
}

void Timeline::note_publish(std::uint64_t round) {
  ++row_for(round).publishes;
}

void Timeline::note_event_send(std::uint64_t round, std::uint64_t count) {
  row_for(round).event_sends += count;
}

void Timeline::note_inter_send(std::uint64_t round, std::uint64_t count) {
  row_for(round).inter_sends += count;
}

void Timeline::note_control_send(std::uint64_t round, std::uint64_t count) {
  row_for(round).control_sends += count;
}

void Timeline::note_join(std::uint64_t round) { ++row_for(round).joins; }

void Timeline::note_leave(std::uint64_t round) { ++row_for(round).leaves; }

void Timeline::note_crash(std::uint64_t round) { ++row_for(round).crashes; }

void Timeline::note_recover(std::uint64_t round) {
  ++row_for(round).recovers;
}

void Timeline::note_queue_peak(std::uint64_t round, std::uint64_t bytes) {
  Window& window = window_for(round);
  window.queue_peak_bytes = std::max(window.queue_peak_bytes, bytes);
}

void Timeline::sample_gauges(std::uint64_t round, std::uint64_t seen_bytes,
                             std::uint64_t delivered_bytes,
                             std::uint64_t request_bytes) {
  Window& window = window_for(round);
  window.seen_bytes = std::max(window.seen_bytes, seen_bytes);
  window.delivered_bytes = std::max(window.delivered_bytes, delivered_bytes);
  window.request_bytes = std::max(window.request_bytes, request_bytes);
}

void Timeline::merge(const Timeline& other) {
  if (rounds_.size() < other.rounds_.size()) {
    rounds_.resize(other.rounds_.size());
  }
  for (std::size_t i = 0; i < other.rounds_.size(); ++i) {
    rounds_[i] += other.rounds_[i];
  }
  if (windows_.size() < other.windows_.size()) {
    windows_.resize(other.windows_.size());
  }
  for (std::size_t i = 0; i < other.windows_.size(); ++i) {
    Window& into = windows_[i];
    const Window& from = other.windows_[i];
    into.queue_peak_bytes = std::max(into.queue_peak_bytes,
                                     from.queue_peak_bytes);
    into.seen_bytes = std::max(into.seen_bytes, from.seen_bytes);
    into.delivered_bytes = std::max(into.delivered_bytes, from.delivered_bytes);
    into.request_bytes = std::max(into.request_bytes, from.request_bytes);
    into.latency.merge(from.latency);
  }
}

std::uint64_t Timeline::peak_bookkeeping_bytes() const noexcept {
  std::uint64_t peak = 0;
  for (const Window& window : windows_) {
    peak = std::max(peak, window.bookkeeping_bytes());
  }
  return peak;
}

}  // namespace dam::util

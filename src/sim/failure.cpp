#include "sim/failure.hpp"

#include <algorithm>
#include <stdexcept>

namespace dam::sim {

StillbornFailures StillbornFailures::sample(
    const std::vector<ProcessId>& processes, double alive_fraction,
    util::Rng& rng) {
  StillbornFailures model;
  const double fail_probability = 1.0 - alive_fraction;
  for (ProcessId process : processes) {
    if (rng.bernoulli(fail_probability)) model.fail(process);
  }
  return model;
}

void StillbornFailures::fail(ProcessId process) {
  const std::size_t word = process.value / 64;
  if (word >= failed_.size()) failed_.resize(word + 1, 0);
  const std::uint64_t bit = std::uint64_t{1} << (process.value % 64);
  failed_count_ += (failed_[word] & bit) == 0;
  failed_[word] |= bit;
}

void ChurnFailures::add_downtime(ProcessId process, Interval interval) {
  if (interval.down >= interval.up) {
    throw std::invalid_argument("ChurnFailures: empty downtime interval");
  }
  auto& list = downtime_.at(process.value);
  list.push_back(interval);
  std::sort(list.begin(), list.end(),
            [](const Interval& a, const Interval& b) { return a.down < b.down; });
  transitions_.push_back({interval.down, process.value});
  transitions_.push_back({interval.up, process.value});
  synced_ = false;
}

ChurnFailures ChurnFailures::sample(std::size_t process_count, Round horizon,
                                    std::size_t outages, Round outage_length,
                                    util::Rng& rng) {
  ChurnFailures model(process_count);
  if (horizon == 0 || outage_length == 0) return model;
  for (std::uint32_t p = 0; p < process_count; ++p) {
    for (std::size_t k = 0; k < outages; ++k) {
      const Round start = rng.below(horizon);
      model.add_downtime(ProcessId{p},
                         Interval{start, start + outage_length});
    }
  }
  return model;
}

bool ChurnFailures::down_at(ProcessId process, Round round) const {
  for (const Interval& interval : downtime_[process.value]) {
    if (round >= interval.down && round < interval.up) return true;
    if (interval.down > round) break;  // sorted; no later interval matches
  }
  return false;
}

void ChurnFailures::advance(Round round) const {
  if (!synced_) {
    std::sort(transitions_.begin(), transitions_.end(),
              [](const Transition& a, const Transition& b) {
                return a.round < b.round;
              });
    std::fill(dead_.begin(), dead_.end(), 0);
    applied_ = 0;
    synced_ = true;
  }
  // A process's state changes only at its own endpoints, so re-deciding
  // the processes with an endpoint in (cursor_, round] brings every bit to
  // `round`.
  for (; applied_ < transitions_.size() &&
         transitions_[applied_].round <= round;
       ++applied_) {
    const std::uint32_t p = transitions_[applied_].process;
    const std::uint64_t bit = std::uint64_t{1} << (p % 64);
    if (down_at(ProcessId{p}, round)) {
      dead_[p / 64] |= bit;
    } else {
      dead_[p / 64] &= ~bit;
    }
  }
  cursor_ = round;
}

void ChurnFailures::throw_out_of_range() {
  throw std::out_of_range("ChurnFailures: process outside the schedule");
}

}  // namespace dam::sim

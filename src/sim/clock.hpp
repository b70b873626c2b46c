// Virtual time for the simulator.
//
// The paper's evaluation (Sec. VII-A) "simulates synchronous gossip rounds";
// our unit of virtual time is therefore the round.
#pragma once

#include <cstdint>

namespace dam::sim {

/// A round index. Rounds start at 0 and only move forward.
using Round = std::uint64_t;

/// Monotonic virtual clock owned by the simulation engine.
class Clock {
 public:
  [[nodiscard]] Round now() const noexcept { return now_; }

  /// Advances to `round`. Precondition: round >= now() (checked in debug).
  void advance_to(Round round) noexcept;

  void tick() noexcept { ++now_; }

  void reset() noexcept { now_ = 0; }

 private:
  Round now_ = 0;
};

}  // namespace dam::sim

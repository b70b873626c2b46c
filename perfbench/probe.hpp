// Machine-speed probe for the benchmark's timings.
//
// The benchmark shares a host with other tenants, whose load slows both the
// core (compute) and the shared cache and memory system by up to 3x, in
// stretches of seconds to minutes. A fixed pair of kernels, timed between
// engine runs, tells how fast the machine runs at that moment: a dependent
// multiply chain (compute) and a dependent random walk over a 64 MiB table
// (cache and memory). Their slowdown is the product of both kernels' times
// over their reference times; dividing a run's wall time by the slowdown
// around it rescales that time to the reference machine speed. The kernels
// live here, not in the program, so a change to the program cannot move
// them.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class SpeedProbe {
 public:
  /// Times both kernels once (about 0.2 s on a quiet host) and returns the
  /// slowdown against the reference times: 1 on a quiet host, larger under
  /// load. The table is allocated by the first call.
  double slowdown();

 private:
  std::vector<std::uint32_t> table_;
};

}  // namespace perfbench

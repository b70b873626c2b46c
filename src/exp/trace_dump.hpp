// The --trace=FILE implementation of damlab.
//
// Replays ONE dynamic run (run 0 of the first alive fraction) with a
// bounded TraceRecorder attached and dumps the ring buffer as CSV. Tracing
// never perturbs the run: the RNG streams are recorder-independent, so the
// traced run is the same run 0 the sweep executes. Frozen-lane scenarios
// (daMulticast and the three Sec. VI-E baselines) and steady-rival ones
// are rejected, naming their engine: none of them runs a DamSystem.
#pragma once

#include <iosfwd>
#include <string>

#include "sim/scenario.hpp"

namespace dam::exp {

/// Returns a process exit code: 0 on success, 2 on a non-dynamic scenario,
/// a scenario without alive fractions, or an unwritable `path`. Progress
/// goes to `out`, diagnostics (prefixed with "damlab: ") to `err`.
[[nodiscard]] int dump_trace(const sim::Scenario& scenario,
                             const std::string& path, std::ostream& out,
                             std::ostream& err);

}  // namespace dam::exp

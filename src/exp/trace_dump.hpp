// Shared --trace=FILE implementation for the CLI tools.
//
// Replays ONE dynamic run (run 0 of the first alive fraction) with a
// bounded TraceRecorder attached and dumps the ring buffer as CSV —
// identical behavior from damsim and damlab (tool parity). Tracing never
// perturbs the run: the RNG streams are recorder-independent, so the
// traced run is the same run 0 the sweep executes. Frozen and steady-rival
// scenarios are rejected, naming their engine: neither runs a DamSystem.
#pragma once

#include <iosfwd>
#include <string>

#include "sim/scenario.hpp"

namespace dam::exp {

/// Returns a process exit code: 0 on success, 2 on a non-dynamic scenario,
/// a scenario without alive fractions, or an unwritable `path`. Progress
/// goes to `out`, diagnostics (prefixed with `tool`) to `err`.
[[nodiscard]] int dump_trace(const sim::Scenario& scenario,
                             const std::string& path, std::ostream& out,
                             std::ostream& err, const char* tool);

}  // namespace dam::exp

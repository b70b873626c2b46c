// The benchmark's workloads and the two ways it runs them.
//
// Untraced: one engine run through the program's own entry point,
// exp::run_sweep (one run, --jobs=1, threads=1), which dispatches to
// workload::run_dynamic_simulation or core::run_frozen_simulation.
//
// Traced: the same run driven call by call from this directory: the same
// sequence of public calls run_dynamic_simulation makes (generate_stream,
// spawn_group, run_rounds(1) per round, publish, spawn, the grading calls,
// gauge sampling), or build_frozen_tables plus run_frozen_simulation for
// the frozen engine, each wrapped in a Tracer span and followed by counter
// reads. The traced run must reproduce the untraced run's deterministic
// outputs exactly; a mismatch fails the operation.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/scenario.hpp"
#include "topics/dag.hpp"
#include "trace.hpp"
#include "workload/driver.hpp"

namespace perfbench {

enum class Workload { kPublish, kChurn, kFrozen };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

/// Deterministic outputs of one engine run. Equal for every run of one
/// seed, and equal between the untraced and traced paths.
struct Outputs {
  std::uint64_t sent = 0;              ///< event + control messages sent
  std::uint64_t first_deliveries = 0;  ///< publisher self-deliveries included
  std::uint64_t control_sends = 0;
  std::uint64_t publications = 0;
  double reliability = 0.0;
  double latency_p50 = 0.0;            ///< rounds
  double latency_p99 = 0.0;            ///< rounds
  std::uint64_t state_bytes = 0;       ///< tables + queue peak + bookkeeping peak

  bool operator==(const Outputs&) const = default;
};

/// One engine run with its wall split and the checks that failed.
struct RunResult {
  Outputs outputs;
  double setup_s = 0.0;  ///< stream generation + spawn_group / table build
  double run_s = 0.0;    ///< replay rounds + grading / waves + accounting
  std::vector<std::string> failures;

  /// Traced runs only: per-layer values of this run, by metric name.
  std::map<std::string, double> layers;
};

class Bench {
 public:
  Bench(Workload workload, std::uint64_t seed);

  /// One run through exp::run_sweep. `sweep_overhead_s` receives the
  /// sweep's wall minus the run's own wall.
  [[nodiscard]] RunResult run_untraced(double* sweep_overhead_s = nullptr) const;

  /// One run driven call by call, every call inside a span of `tracer`.
  [[nodiscard]] RunResult run_traced(Tracer& tracer) const;

 private:
  [[nodiscard]] RunResult traced_dynamic(Tracer& tracer) const;
  [[nodiscard]] RunResult traced_frozen(Tracer& tracer) const;
  [[nodiscard]] dam::workload::TrafficShape shape() const;
  [[nodiscard]] std::uint64_t run_seed() const {
    return scenario_.seed_for(scenario_.alive_sweep.front(), 0);
  }

  Workload workload_;
  dam::sim::Scenario scenario_;
  dam::topics::TopicDag dag_;
  dam::workload::DynamicScenarioBinding binding_;
};

}  // namespace perfbench

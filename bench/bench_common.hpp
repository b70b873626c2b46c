// Shared helpers for the paper-reproduction bench binaries.
//
// Every bench prints (a) a paper-style aligned table to stdout and (b), if
// a path is given as argv[1], the same series as CSV for plotting.
//
// The paper's figures (Sec. VII) are registry presets run by damlab
// (`damlab --scenario=fig8` .. `fig11`), not benches. A bench that sweeps
// scenarios fetches a preset (preset_or_die) or builds one, runs it through
// the parallel experiment runner (src/exp — results are bit-identical for
// any worker count), and prints the shared report via run_scenario_bench.
// Benches of the dynamic message-passing system (bootstrap, recovery,
// memory) or of the closed-form analysis keep custom loops.
#pragma once

#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "sim/scenario.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

namespace dam::bench {

/// Optional CSV sink: opened when the bench got an output path argument.
class CsvSink {
 public:
  CsvSink(int argc, char** argv) {
    if (argc > 1) writer_ = std::make_unique<util::CsvWriter>(argv[1]);
  }

  template <typename... Ts>
  void row(const Ts&... values) {
    if (writer_) writer_->row(values...);
  }

  void header(const std::vector<std::string>& columns) {
    if (writer_) writer_->header(columns);
  }

  [[nodiscard]] bool enabled() const noexcept { return writer_ != nullptr; }

  /// The underlying writer (nullptr when no path was given) — for helpers
  /// that stream rows themselves, e.g. exp::print_sweep_table.
  [[nodiscard]] util::CsvWriter* writer() noexcept { return writer_.get(); }

 private:
  std::unique_ptr<util::CsvWriter> writer_;
};

inline void print_title(const std::string& title, const std::string& note) {
  std::cout << "\n=== " << title << " ===\n";
  if (!note.empty()) std::cout << note << "\n";
  std::cout << "\n";
}

/// Runs `scenario` through the thread-pooled runner and prints the shared
/// per-group report (mirrored to the CSV sink when enabled).
inline void run_scenario_bench(const sim::Scenario& scenario, CsvSink& csv) {
  const exp::SweepResult sweep = exp::run_sweep(scenario);
  exp::print_sweep_table(sweep.points, std::cout, csv.writer());
}

/// Fetches a registry preset by name; throws if the registry and the bench
/// drifted apart (a bench wrapping a preset that was renamed is a bug).
inline sim::Scenario preset_or_die(const std::string& name) {
  const sim::Scenario* preset = sim::find_scenario(name);
  if (preset == nullptr) {
    throw std::runtime_error("bench: scenario preset '" + name +
                             "' missing from the registry");
  }
  return *preset;
}

}  // namespace dam::bench

// Pluggable result reporters for experiment sweeps.
//
// Three sinks over the same aggregates (exp/aggregate):
//   * print_sweep_table — the paper-style aligned console table (one row
//     per alive fraction, per-group intra/inter/reliability columns);
//   * csv_report_header / csv_report_rows — long-format CSV (one row per
//     (sweep, point, group)) for plotting across scenarios and grid cells;
//   * BenchReport — machine-readable JSON ("damlab-bench-v1") recording
//     wall time, runs/sec, events/sec, the table-build vs dissemination
//     engine-time split, peak membership-arena bytes, and the per-point
//     aggregates of every sweep in the invocation. damlab writes it to
//     BENCH_sweep.json; the schema is documented in README "Running
//     experiments" and pinned by tests/exp/report_test.cpp. tools/bench_diff
//     compares two documents and gates on throughput regressions.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/grid.hpp"
#include "exp/runner.hpp"
#include "util/csv.hpp"

namespace dam::exp {

/// Renders the aggregated sweep as an aligned console table. Group labels
/// come from the points themselves; an empty sweep prints nothing.
void print_sweep_table(const std::vector<ScenarioPoint>& points,
                       std::ostream& out);

/// Long-format CSV: header once per file, then one row per
/// (sweep, point, group) via csv_report_rows.
void csv_report_header(util::CsvWriter& csv);
void csv_report_rows(util::CsvWriter& csv, const std::string& scenario,
                     const GridPoint& grid, const SweepResult& sweep);

/// Long-format flight-recorder CSV: header once per file, then one row per
/// (sweep, point, window) — windowed deliveries, reliability-so-far,
/// rolling latency p50/p99, send/churn counters, queue high-water, and the
/// bookkeeping gauges. This is the `--timeline=FILE` output of damlab.
void timeline_csv_header(util::CsvWriter& csv);
void timeline_csv_rows(util::CsvWriter& csv, const std::string& scenario,
                       const GridPoint& grid, const SweepResult& sweep);

/// Collects every sweep of one damlab invocation and serializes them as a
/// single "damlab-bench-v1" JSON document.
class BenchReport {
 public:
  void add(std::string scenario, GridPoint grid, const SweepResult& sweep);

  [[nodiscard]] std::size_t sweep_count() const noexcept {
    return records_.size();
  }

  /// Writes the document (strings escaped per RFC 8259; non-finite numbers
  /// serialized as null).
  void write(std::ostream& out) const;

  /// Writes to a file; throws std::runtime_error if it cannot open.
  void write_file(const std::string& path) const;

 private:
  struct Record {
    std::string scenario;
    GridPoint grid;
    SweepResult sweep;
  };
  std::vector<Record> records_;
};

}  // namespace dam::exp

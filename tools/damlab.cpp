// damlab — the parallel experiment lab.
//
// Fans one or more scenario presets, expanded over an optional parameter
// grid, across a work-stealing thread pool (src/exp) and reports the
// aggregates as console tables, long-format CSV, and/or a machine-readable
// JSON bench document:
//
//   damlab --list-scenarios
//   damlab --scenario=fig9 --jobs=8
//   damlab --scenario=fig9 --jobs=8 --grid a=1:4 --json=BENCH_sweep.json
//   damlab --scenario=fig9,fig10 --grid "g=5,10 psucc=0.5:0.9:0.2"
//          --csv=sweep.csv --runs=50
//   damlab --scenario=all --runs=10 --json=BENCH_sweep.json
//
// Aggregates are bit-identical for every --jobs value: run seeds derive
// from (base_seed, point, run) and shard merge order is fixed (see
// src/exp/runner.hpp). --threads sets the engines' INTRA-run workers
// (core/frozen_sim.hpp); the chunk grid never depends on it, so aggregates
// are likewise bit-identical for every --threads value.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "exp/grid.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/trace_dump.hpp"
#include "sim/scenario.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

namespace {

std::vector<std::string> split_names(const std::string& list) {
  std::vector<std::string> names;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string name =
        list.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    if (!name.empty()) names.push_back(name);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dam;
  util::ArgParser args(
      "damlab — parallel experiment lab over the scenario registry");
  args.add_option("scenario", "",
                  "comma-separated preset names, 'all', or the alias "
                  "'steady-baselines' (= steady-state,steady-tree,"
                  "steady-gossip: protocol vs both rivals on one stream; "
                  "see --list-scenarios)");
  args.add_option("jobs", "0",
                  "cross-run worker threads: fans (point, run) cells "
                  "across the pool (0 = hardware concurrency)");
  args.add_option("threads", "1",
                  "intra-run worker threads: fill table builds, wave "
                  "frontiers, and spawn batches inside each run (0 = "
                  "hardware); changes speed, never results");
  args.add_option("grid", "",
                  "parameter grid, e.g. \"a=1:4 g=5,10 psucc=0.5:0.9:0.2\" "
                  "(keys: a b c g psucc tau z alive scale depth fanin runs "
                  "rate zipf_s crash_frac leave_frac join_frac publishers "
                  "horizon gc_horizon)");
  args.add_option("runs", "0", "override runs per sweep point (0 = preset)");
  args.add_option("json", "", "write the JSON bench report to this path");
  args.add_option("csv", "", "write long-format CSV rows to this path");
  args.add_option("timeline", "",
                  "write the flight recorder's windowed time-series as "
                  "long-format CSV (one row per sweep, point, window) to "
                  "this path");
  args.add_option("trace", "",
                  "dynamic scenarios only: replay run 0 of the FIRST "
                  "selected scenario x grid cell with a bounded "
                  "TraceRecorder and dump its ring buffer as CSV here "
                  "(instead of running the sweeps)");
  args.add_flag("quiet", "suppress the per-sweep console tables");
  args.add_flag("list-scenarios", "list the named scenario presets and exit");

  try {
    args.parse(argc, argv);
  } catch (const util::ArgError& error) {
    std::cerr << "damlab: " << error.what() << "\n\n" << args.help_text();
    return 2;
  }
  if (args.help_requested()) {
    std::cout << args.help_text();
    return 0;
  }
  if (args.flag("list-scenarios")) {
    sim::print_registry(std::cout);
    return 0;
  }

  try {
    const std::string scenario_arg = args.str("scenario");
    if (scenario_arg.empty()) {
      std::cerr << "damlab: --scenario is required (see --list-scenarios)\n";
      return 2;
    }
    std::vector<sim::Scenario> selected;
    if (scenario_arg == "all") {
      selected = sim::scenario_registry();
    } else {
      for (const std::string& name : split_names(scenario_arg)) {
        // The head-to-head alias: the protocol and both steady baseline
        // engines over the IDENTICAL stream (shared base_seed), so one
        // invocation lands all three on one damlab-bench-v1 report.
        if (name == "steady-baselines") {
          for (const char* member :
               {"steady-state", "steady-tree", "steady-gossip"}) {
            selected.push_back(*sim::find_scenario(member));
          }
          continue;
        }
        const sim::Scenario* preset = sim::find_scenario(name);
        if (preset == nullptr) {
          std::cerr << "damlab: unknown scenario '" << name
                    << "' (see --list-scenarios)\n";
          return 2;
        }
        selected.push_back(*preset);
      }
    }

    const auto grid_points = exp::expand_grid(exp::parse_grid(args.str("grid")));
    if (args.integer("jobs") < 0 || args.integer("threads") < 0) {
      std::cerr << "damlab: --jobs and --threads must be >= 0\n";
      return 2;
    }
    exp::RunnerOptions options;
    options.jobs = static_cast<unsigned>(args.integer("jobs"));
    const std::int64_t runs_override = args.integer("runs");

    std::unique_ptr<util::CsvWriter> csv;
    if (!args.str("csv").empty()) {
      csv = std::make_unique<util::CsvWriter>(args.str("csv"));
      exp::csv_report_header(*csv);
    }
    std::unique_ptr<util::CsvWriter> timeline_csv;
    if (!args.str("timeline").empty()) {
      timeline_csv = std::make_unique<util::CsvWriter>(args.str("timeline"));
      exp::timeline_csv_header(*timeline_csv);
    }
    exp::BenchReport report;

    for (const sim::Scenario& preset : selected) {
      for (const exp::GridPoint& cell : grid_points) {
        sim::Scenario scenario = preset;
        // --runs is the fallback; a `runs` grid axis wins per cell (the
        // cell's label must describe what actually executed).
        if (runs_override > 0) {
          scenario.runs = static_cast<int>(runs_override);
        }
        scenario.threads = static_cast<unsigned>(args.integer("threads"));
        exp::apply_grid_point(scenario, cell);
        if (!args.str("trace").empty()) {
          // One traced replay of run 0: first selected scenario x first
          // grid cell, overrides applied.
          return exp::dump_trace(scenario, args.str("trace"), std::cout,
                                 std::cerr);
        }
        const exp::SweepResult sweep = exp::run_sweep(scenario, options);
        if (!args.flag("quiet")) {
          std::cout << "\n=== scenario " << scenario.name;
          const std::string label = exp::grid_label(cell);
          if (!label.empty()) std::cout << " [" << label << "]";
          std::cout << " ===\n" << scenario.summary << "\n\n";
          exp::print_sweep_table(sweep.points, std::cout);
          std::cout << "\n" << sweep.total_runs << " runs in "
                    << util::fixed(sweep.wall_seconds, 2) << "s ("
                    << util::fixed(sweep.wall_seconds > 0.0
                                       ? static_cast<double>(sweep.total_runs) /
                                             sweep.wall_seconds
                                       : 0.0,
                                   0)
                    << " runs/s, jobs=" << sweep.jobs << ", threads="
                    << sweep.threads << "; engine time "
                    << util::fixed(sweep.table_build_seconds, 2)
                    << "s tables + "
                    << util::fixed(sweep.dissemination_seconds, 2)
                    << "s dissemination, peak tables "
                    << sweep.peak_table_bytes / 1024 << " KiB, peak queue "
                    << sweep.peak_queue_bytes / 1024 << " KiB)\n";
        }
        if (csv) exp::csv_report_rows(*csv, scenario.name, cell, sweep);
        if (timeline_csv) {
          exp::timeline_csv_rows(*timeline_csv, scenario.name, cell, sweep);
        }
        report.add(scenario.name, cell, sweep);
      }
    }

    if (!args.str("json").empty()) {
      report.write_file(args.str("json"));
      std::cout << "wrote " << report.sweep_count() << " sweep(s) to "
                << args.str("json") << "\n";
    }
  } catch (const util::ArgError& error) {
    std::cerr << "damlab: " << error.what() << "\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "damlab: " << error.what() << "\n";
    return 2;
  }
  return 0;
}

// The dynamic (message-passing) engine at the million-process north star.
//
// Wraps a stream-engine preset — default giant-dynamic: one group, one
// scheduled publication, short drain — scaled by --scale (default 10,
// i.e. S = 10⁶), and proves the run completes inside a wall budget.
// Before spawn_group sampled every initial view into one shared CSR arena
// (core::GroupViewArena), the dynamic lane topped out around 10⁴–10⁵
// processes; this bench is the regression gate that keeps the
// million-process run feasible.
//
//   bench_dynamic_scale [--scenario=giant-dynamic] [--scale=10] [--runs=1]
//                       [--jobs=1] [--threads=N] [--grid "gc_horizon=0,64"]
//                       [--budget=900] [--queue-budget=0]
//                       [--bookkeeping-budget=0] [--json=out.json]
//
// --scenario accepts any stream-engine preset (giant-dynamic,
// steady-state, steady-tree, steady-gossip, ...), so the sustained-service
// lane reuses the same budget gates: e.g.
//   bench_dynamic_scale --scenario=steady-state --scale=100
//                       --grid "gc_horizon=0,64" --bookkeeping-budget=64
// pins the steady lane's GC-on/off bookkeeping divergence at S = 10⁵.
// --grid cells are swept one sweep per cell (each composed with --scale),
// all landing in one damlab-bench-v1 document.
//
// --budget is the wall limit in seconds for the WHOLE bench (all cells, 0
// disables); --queue-budget bounds the transport's high-water in-flight
// queue footprint in MiB (0 disables); --bookkeeping-budget bounds the
// flight recorder's worst-window seen/delivered/request-set footprint in
// MiB (0 disables). Wall is machine-dependent; queue and bookkeeping
// bytes are logical and deterministic, so those gates can be tight.
// The process exits 1 when any budget is exceeded, so CI can gate on
// them directly. The JSON document is the standard damlab-bench-v1 schema,
// with peak_table_bytes reporting the view-arena footprint,
// peak_queue_bytes the slab-queue high-water mark, and
// peak_bookkeeping_bytes the timeline's gauge high-water mark.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "exp/grid.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "sim/scenario.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace dam;
  util::ArgParser args(
      "bench_dynamic_scale — a stream-engine preset under a wall budget");
  args.add_option("scenario", "giant-dynamic",
                  "stream-engine preset to scale (giant-dynamic, "
                  "steady-state, steady-tree, steady-gossip, ...)");
  args.add_option("scale", "10", "group-size multiplier (10 -> S = 1e6)");
  args.add_option("grid", "",
                  "extra parameter grid swept one sweep per cell, each "
                  "composed with --scale (e.g. \"gc_horizon=0,64\")");
  args.add_option("runs", "1", "engine runs");
  args.add_option("jobs", "1", "cross-run worker threads (runs overlap at >1)");
  args.add_option("threads", "1",
                  "intra-run worker threads for the spawn-batch arena fill "
                  "(0 = hardware); changes speed, never results");
  args.add_option("budget", "900",
                  "wall budget in seconds for the whole bench (0 = off)");
  args.add_option("queue-budget", "0",
                  "peak in-flight queue budget in MiB (0 = off)");
  args.add_option("bookkeeping-budget", "0",
                  "peak seen/delivered/request-set budget in MiB (0 = off)");
  args.add_option("json", "", "write the damlab-bench-v1 document here");
  try {
    args.parse(argc, argv);
  } catch (const util::ArgError& error) {
    std::cerr << "bench_dynamic_scale: " << error.what() << "\n";
    return 2;
  }
  if (args.help_requested()) {
    std::cout << args.help_text();
    return 0;
  }

  const double scale = args.real("scale");
  const double budget = args.real("budget");
  const sim::Scenario* preset = sim::find_scenario(args.str("scenario"));
  if (preset == nullptr) {
    std::cerr << "bench_dynamic_scale: unknown scenario '"
              << args.str("scenario") << "'\n";
    return 2;
  }
  if (!sim::is_stream_engine(preset->engine)) {
    std::cerr << "bench_dynamic_scale: '" << preset->name
              << "' is a frozen-engine preset; this bench gates the "
                 "stream engines (use bench_figures for the frozen lane)\n";
    return 2;
  }

  std::vector<exp::GridPoint> cells;
  try {
    cells = exp::expand_grid(exp::parse_grid(args.str("grid")));
  } catch (const std::exception& error) {
    std::cerr << "bench_dynamic_scale: " << error.what() << "\n";
    return 2;
  }

  exp::RunnerOptions options;
  options.jobs = static_cast<unsigned>(args.integer("jobs"));

  exp::BenchReport report;
  util::ConsoleTable table({"S", "grid", "runs", "wall", "spawn (sum)",
                            "replay (sum)", "arena MiB", "queue MiB",
                            "bookkeep MiB", "reliab", "events/sec"});
  double total_wall = 0.0;
  double worst_queue_mib = 0.0;
  double worst_bookkeeping_mib = 0.0;
  for (const exp::GridPoint& extra : cells) {
    sim::Scenario scenario = *preset;
    scenario.runs = static_cast<int>(args.integer("runs"));
    scenario.threads = static_cast<unsigned>(args.integer("threads"));
    // The scale axis applies first so a user grid can still override
    // derived knobs afterwards; the composed cell labels the JSON sweep.
    exp::GridPoint cell{{"scale", scale}};
    for (const auto& axis : extra) cell.push_back(axis);
    exp::apply_grid_point(scenario, cell);

    const exp::SweepResult sweep = exp::run_sweep(scenario, options);
    total_wall += sweep.wall_seconds;

    std::size_t processes = 0;
    for (const std::size_t size : scenario.group_sizes) processes += size;
    const double mib = static_cast<double>(sweep.peak_table_bytes) /
                       (1024.0 * 1024.0);
    const double queue_mib = static_cast<double>(sweep.peak_queue_bytes) /
                             (1024.0 * 1024.0);
    const double bookkeeping_mib =
        static_cast<double>(sweep.peak_bookkeeping_bytes) / (1024.0 * 1024.0);
    worst_queue_mib = std::max(worst_queue_mib, queue_mib);
    worst_bookkeeping_mib = std::max(worst_bookkeeping_mib, bookkeeping_mib);
    const std::string label = exp::grid_label(extra);
    table.row_strings(
        {std::to_string(processes), label.empty() ? "-" : label,
         std::to_string(sweep.total_runs),
         util::fixed(sweep.wall_seconds, 1) + "s",
         util::fixed(sweep.table_build_seconds, 1) + "s",
         util::fixed(sweep.dissemination_seconds, 1) + "s",
         util::fixed(mib, 1), util::fixed(queue_mib, 1),
         util::fixed(bookkeeping_mib, 1),
         util::fixed(sweep.points[0].event_reliability.mean(), 4),
         util::fixed(sweep.wall_seconds > 0.0
                         ? static_cast<double>(sweep.total_events) /
                               sweep.wall_seconds
                         : 0.0,
                     0)});
    report.add(scenario.name, cell, sweep);
  }

  std::cout << "\n=== stream engine at scale (" << preset->name << " x "
            << util::fixed(scale, 0) << ") ===\n\n";
  table.print(std::cout);

  if (!args.str("json").empty()) {
    report.write_file(args.str("json"));
  }

  if (budget > 0.0 && total_wall > budget) {
    std::cerr << "bench_dynamic_scale: wall " << total_wall
              << "s exceeded the budget of " << budget << "s\n";
    return 1;
  }
  const double queue_budget = args.real("queue-budget");
  if (queue_budget > 0.0 && worst_queue_mib > queue_budget) {
    std::cerr << "bench_dynamic_scale: peak queue " << worst_queue_mib
              << " MiB exceeded the budget of " << queue_budget << " MiB\n";
    return 1;
  }
  const double bookkeeping_budget = args.real("bookkeeping-budget");
  if (bookkeeping_budget > 0.0 &&
      worst_bookkeeping_mib > bookkeeping_budget) {
    std::cerr << "bench_dynamic_scale: peak bookkeeping "
              << worst_bookkeeping_mib << " MiB exceeded the budget of "
              << bookkeeping_budget << " MiB\n";
    return 1;
  }
  return 0;
}

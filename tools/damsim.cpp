// damsim — command-line driver for the unified frozen-table engine.
//
// Two modes, both executed by the parallel experiment runner (src/exp);
// results are bit-identical for every --jobs value (cross-run fan-out)
// and every --threads value (intra-run workers):
//  * ad-hoc linear hierarchy, every parameter exposed as a flag:
//      damsim --sizes=10,100,1000 --alive=0.7 --runs=100
//      damsim --sweep --csv=out.csv --g=10 --z=5 --jobs=4
//      damsim --publish-level=0 --runs=20
//  * named scenario presets from the registry (src/sim/scenario.cpp):
//      damsim --list-scenarios
//      damsim --scenario=fig9 [--csv=out.csv] [--runs=N] [--jobs=N]
//
// For grids over several scenarios/parameters and JSON bench reports, use
// the full lab frontend: tools/damlab.cpp.
#include <iostream>
#include <memory>

#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/trace_dump.hpp"
#include "sim/scenario.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"

namespace {

/// Runs one scenario through the pool and prints the shared report.
/// `timeline_path`, when set, also dumps the flight recorder's windowed
/// series as long-format CSV (exp::timeline_csv_rows).
int run_and_report(const dam::sim::Scenario& scenario,
                   const std::string& csv_path,
                   const std::string& timeline_path,
                   const dam::exp::RunnerOptions& options) {
  const dam::exp::SweepResult sweep = dam::exp::run_sweep(scenario, options);
  std::unique_ptr<dam::util::CsvWriter> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<dam::util::CsvWriter>(csv_path);
  }
  dam::exp::print_sweep_table(sweep.points, std::cout, csv.get());
  if (!timeline_path.empty()) {
    dam::util::CsvWriter timeline_csv(timeline_path);
    dam::exp::timeline_csv_header(timeline_csv);
    dam::exp::timeline_csv_rows(timeline_csv, scenario.name,
                                dam::exp::GridPoint{}, sweep);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dam;
  util::ArgParser args(
      "damsim — daMulticast frozen-table simulator (paper Sec. VII)");
  args.add_option("sizes", "10,100,1000",
                  "group sizes root-first, comma separated");
  args.add_option("alive", "1.0", "fraction of alive processes");
  args.add_option("runs", "100", "simulation runs per data point");
  args.add_option("seed", "1", "base random seed");
  args.add_option("jobs", "0",
                  "cross-run worker threads: fans (point, run) cells "
                  "across the pool (0 = hardware concurrency)");
  args.add_option("threads", "1",
                  "intra-run worker threads: fill table builds and wave "
                  "frontiers inside each run (0 = hardware); changes "
                  "speed, never results");
  args.add_option("b", "3", "topic-table capacity factor");
  args.add_option("c", "5", "gossip fanout constant");
  args.add_option("g", "5", "expected intergroup links (psel = g/S)");
  args.add_option("a", "1", "expected supertable targets (pa = a/z)");
  args.add_option("z", "3", "supertopic-table size");
  args.add_option("psucc", "0.85", "channel delivery probability");
  args.add_option("publish-level", "-1",
                  "level of the published event (-1 = bottom-most)");
  args.add_option("csv", "", "write the sweep/point as CSV to this path");
  args.add_flag("sweep", "sweep alive fraction 0.0..1.0 instead of one point");
  args.add_flag("dynamic",
                "use the weakly-consistent (Fig. 11) failure regime");
  args.add_flag("list-scenarios", "list the named scenario presets and exit");
  args.add_option("scenario", "",
                  "run a named scenario preset instead of the flag-built one");
  args.add_option("log-level", "off",
                  "logger verbosity: trace|debug|info|warn|error|off");
  args.add_option("trace", "",
                  "dynamic scenarios only: replay run 0 with a bounded "
                  "TraceRecorder and dump its ring buffer as CSV here "
                  "(instead of running the sweep)");
  args.add_option("timeline", "",
                  "write the flight recorder's windowed time-series "
                  "(deliveries, reliability-so-far, latency percentiles, "
                  "control traffic, churn, bookkeeping gauges) as "
                  "long-format CSV to this path");

  try {
    args.parse(argc, argv);
  } catch (const util::ArgError& error) {
    std::cerr << "damsim: " << error.what() << "\n\n" << args.help_text();
    return 2;
  }
  if (args.help_requested()) {
    std::cout << args.help_text();
    return 0;
  }
  if (args.flag("list-scenarios")) {
    sim::print_registry(std::cout, "damsim");
    return 0;
  }

  try {
    util::Logger::instance().set_level(
        util::parse_log_level(args.str("log-level")));
    if (args.integer("jobs") < 0 || args.integer("threads") < 0) {
      std::cerr << "damsim: --jobs and --threads must be >= 0\n";
      return 2;
    }
    exp::RunnerOptions options;
    options.jobs = static_cast<unsigned>(args.integer("jobs"));

    if (!args.str("scenario").empty()) {
      const sim::Scenario* preset = sim::find_scenario(args.str("scenario"));
      if (preset == nullptr) {
        std::cerr << "damsim: unknown scenario '" << args.str("scenario")
                  << "' (see --list-scenarios)\n";
        return 2;
      }
      sim::Scenario scenario = *preset;
      // Presets carry their own run count; an explicit --runs overrides it.
      if (args.provided("runs") && args.integer("runs") > 0) {
        scenario.runs = static_cast<int>(args.integer("runs"));
      }
      scenario.threads = static_cast<unsigned>(args.integer("threads"));
      if (!args.str("trace").empty()) {
        return exp::dump_trace(scenario, args.str("trace"), std::cout,
                               std::cerr, "damsim");
      }
      std::cout << "\n=== scenario " << scenario.name << " ===\n"
                << scenario.summary << "\n\n";
      return run_and_report(scenario, args.str("csv"), args.str("timeline"),
                            options);
    }
    if (!args.str("trace").empty()) {
      std::cerr << "damsim: --trace needs --scenario (a dynamic preset)\n";
      return 2;
    }

    // Ad-hoc mode: a linear hierarchy built entirely from flags.
    core::TopicParams params;
    params.b = args.real("b");
    params.c = args.real("c");
    params.g = args.real("g");
    params.z = static_cast<std::size_t>(args.integer("z"));
    params.a = args.real("a");
    params.psucc = args.real("psucc");
    params.validate();

    sim::Scenario scenario = sim::make_linear_scenario(
        "adhoc", "flag-built linear hierarchy", args.size_list("sizes"));
    scenario.params = {params};
    scenario.base_seed = static_cast<std::uint64_t>(args.integer("seed"));
    scenario.runs = static_cast<int>(args.integer("runs"));
    if (args.flag("dynamic")) {
      scenario.failure_mode = core::FrozenFailureMode::kDynamicPerception;
    }
    scenario.threads = static_cast<unsigned>(args.integer("threads"));
    if (const auto level = args.integer("publish-level"); level >= 0) {
      scenario.publish_topic = static_cast<std::uint32_t>(level);
    }
    if (args.flag("sweep")) {
      scenario.alive_sweep.clear();
      for (int i = 0; i <= 10; ++i) scenario.alive_sweep.push_back(0.1 * i);
    } else {
      scenario.alive_sweep = {args.real("alive")};
    }
    return run_and_report(scenario, args.str("csv"), args.str("timeline"),
                          options);
  } catch (const util::ArgError& error) {
    std::cerr << "damsim: " << error.what() << "\n";
    return 2;
  } catch (const std::invalid_argument& error) {
    // Bad engine config (empty group, out-of-range publish level, ...).
    std::cerr << "damsim: " << error.what() << "\n";
    return 2;
  }
  return 0;
}

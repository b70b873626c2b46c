// Membership-table construction at giant group sizes: the original O(S²)
// builder (inlined below as the measured reference) against
// build_frozen_tables (Floyd draws into a CSR arena, one worker), one
// group per size, no supertopics.
//
//   bench_table_build_scale [--sizes=10000,100000,1000000]
//                           [--naive-cap=10000] [--csv=out.csv]
//
// The naive builder spends O(S) rebuilding the candidate pool per process,
// so S=1e5 costs minutes and S=1e6 hours; sizes above --naive-cap print an
// extrapolated time (cost is quadratic: x100 per decade) instead of
// running it. The two builders draw different streams; only their cost is
// compared.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/frozen_sim.hpp"
#include "topics/dag.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using dam::core::FrozenSimConfig;

/// The original table build, verbatim modulo names: one pool rebuild +
/// one sample copy per process.
std::vector<std::vector<std::uint32_t>> naive_topic_tables(
    std::size_t size, std::size_t view_size, dam::util::Rng& rng) {
  std::vector<std::vector<std::uint32_t>> table(size);
  std::vector<std::uint32_t> others;
  others.reserve(size - 1);
  for (std::size_t i = 0; i < size; ++i) {
    others.clear();
    for (std::uint32_t j = 0; j < size; ++j) {
      if (j != static_cast<std::uint32_t>(i)) others.push_back(j);
    }
    table[i] = rng.sample(others, view_size);
  }
  return table;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dam;
  util::ArgParser args(
      "bench_table_build_scale — O(S²) reference vs CSR table construction");
  args.add_option("sizes", "10000,100000,1000000", "group sizes to measure");
  args.add_option("naive-cap", "10000",
                  "largest size to actually run the naive builder at "
                  "(larger sizes extrapolate quadratically)");
  args.add_option("csv", "", "write the series as CSV to this path");
  try {
    args.parse(argc, argv);
  } catch (const util::ArgError& error) {
    std::cerr << "bench_table_build_scale: " << error.what() << "\n";
    return 2;
  }
  if (args.help_requested()) {
    std::cout << args.help_text();
    return 0;
  }

  const auto sizes = args.size_list("sizes");
  const std::size_t naive_cap =
      static_cast<std::size_t>(args.integer("naive-cap"));
  std::unique_ptr<util::CsvWriter> csv;
  if (!args.str("csv").empty()) {
    csv = std::make_unique<util::CsvWriter>(args.str("csv"));
    csv->header({"size", "naive_seconds", "naive_measured", "csr_seconds",
                 "arena_mib"});
  }

  util::ConsoleTable table(
      {"S", "naive (O(S²))", "CSR", "speedup", "arena MiB"});
  double naive_per_s2 = 0.0;  // seconds per S² from the largest measured run

  for (const std::size_t size : sizes) {
    topics::TopicDag dag;
    const auto topic = dag.add_topic("T");
    FrozenSimConfig config;
    config.dag = &dag;
    config.group_sizes = {size};
    config.publish_topic = topic;

    const core::TopicParams& params = core::params_for_topic(config, 0);
    const std::size_t view_size =
        std::min(params.view_capacity(size), size - 1);

    const bool run_naive = size <= naive_cap;
    double naive_seconds = 0.0;
    if (run_naive) {
      util::Rng rng(config.seed);
      const auto start = std::chrono::steady_clock::now();
      (void)naive_topic_tables(size, view_size, rng);
      naive_seconds = seconds_since(start);
      naive_per_s2 = naive_seconds / (static_cast<double>(size) *
                                      static_cast<double>(size));
    } else if (naive_per_s2 > 0.0) {
      naive_seconds = naive_per_s2 * static_cast<double>(size) *
                      static_cast<double>(size);
    }

    const auto start = std::chrono::steady_clock::now();
    const core::FrozenTables tables =
        core::build_frozen_tables(config, util::Rng(config.seed));
    const double csr_seconds = seconds_since(start);

    const double arena_mib =
        static_cast<double>(tables.arena_bytes()) / (1024.0 * 1024.0);
    const std::string naive_cell =
        naive_seconds <= 0.0
            ? std::string("-")
            : util::fixed(naive_seconds, 2) + (run_naive ? "s" : "s est.");
    table.row_strings(
        {std::to_string(size), naive_cell,
         util::fixed(csr_seconds, 3) + "s",
         naive_seconds > 0.0
             ? util::fixed(naive_seconds / csr_seconds, 0) + "x"
             : std::string("-"),
         util::fixed(arena_mib, 1)});
    if (csv) {
      csv->row(size, naive_seconds, run_naive ? 1 : 0, csr_seconds,
               arena_mib);
    }
  }

  std::cout << "\n=== membership-table construction, one group ===\n"
               "naive = original per-process pool copy; CSR = "
               "build_frozen_tables\n(Floyd draws into one arena, one "
               "worker).\n\n";
  table.print(std::cout);
  return 0;
}

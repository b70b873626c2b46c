// damperf — the lab benchmark's binary (run it through run.py).
//
//   damperf --workload publish|churn|frozen --seed N --seconds S --trace 0|1
//           [--spans FILE]
//
// One operation is one engine run of the workload, generated from the
// seed. The first run is a warm-up (checked and counted, not timed); runs
// then repeat while another one still fits in the S seconds, which the
// warm-up counts towards. Times are rescaled by the machine's slowdown
// around each run (probe.hpp) and reported as medians. Every run of one
// seed must give the same deterministic outputs. The last line of stdout
// is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, with the end-to-end
// metrics when --trace 0 and the per-layer metrics when --trace 1.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "probe.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Bench;
using perfbench::Outputs;
using perfbench::RunResult;
using perfbench::SpeedProbe;
using perfbench::Tracer;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},           {"run_s", "s"},
    {"peak_rss_mib", "MiB"},    {"state_mib", "MiB"},
    {"reliability", "fraction"}, {"latency_p50_rounds", "rounds"},
    {"latency_p99_rounds", "rounds"}, {"msgs_per_delivery", "msg"},
};

constexpr Metric kPerLayer[] = {
    {"workload.stream_gen_s", "s"},
    {"workload.publications", "count"},
    {"workload.grade_s", "s"},
    {"workload.gauge_sample_s", "s"},
    {"core.spawn_s", "s"},
    {"core.join_s", "s"},
    {"core.view_arena_mib", "MiB"},
    {"core.rounds_s", "s"},
    {"core.round_us_p50", "us"},
    {"core.round_us_p99", "us"},
    {"core.ns_per_reception", "ns"},
    {"core.publish_s", "s"},
    {"core.first_deliveries", "count"},
    {"core.duplicates", "count"},
    {"core.dedup_useful_ratio", "fraction"},
    {"core.seen_mib_peak", "MiB"},
    {"core.delivered_mib_peak", "MiB"},
    {"net.sent", "count"},
    {"net.event_sends", "count"},
    {"net.delivered", "count"},
    {"net.lost_channel", "count"},
    {"net.lost_failure", "count"},
    {"net.bytes_sent", "bytes"},
    {"net.peak_queue_mib", "MiB"},
    {"net.peak_queue_records", "count"},
    {"membership.control_sends", "count"},
    {"membership.view_entries_mean", "entries"},
    {"membership.view_entries_max", "entries"},
    {"membership.view_bound", "entries"},
    {"sim.alive_probes", "count"},
    {"sim.probes_per_reception", "ratio"},
    {"exp.sweep_overhead_s", "s"},
    {"frozen.table_build_s", "s"},
    {"frozen.wave_s", "s"},
    {"frozen.ns_per_message", "ns"},
    {"frozen.table_mib", "MiB"},
    {"frozen.messages", "count"},
    {"frozen.duplicates", "count"},
    {"trace.overhead_ratio", "ratio"},
};

/// Timed runs a median needs at least, however long they take.
constexpr std::size_t kMinTimedRuns = 3;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile of `values` (q in [0, 1]).
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Counts attempted and failed runs; prints why a run failed.
class Ledger {
 public:
  /// Records one finished run; `reference` holds the outputs every run of
  /// this seed must reproduce.
  void record(RunResult& run, const Outputs& reference, const char* path) {
    if (!(run.outputs == reference)) {
      run.failures.push_back(std::string(path) +
                             " run differs from the first run of the seed");
    }
    note(run.failures);
  }
  void note(const std::vector<std::string>& failures) {
    ++attempted_;
    if (failures.empty()) return;
    ++failed_;
    for (const std::string& why : failures) {
      std::cerr << "damperf: run " << attempted_ << " failed: " << why << '\n';
    }
  }
  [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

void print_result(const Ledger& ledger,
                  const std::vector<std::pair<Metric, double>>& metrics) {
  std::string line = "{\"correct\": ";
  line += ledger.failed() == 0 && ledger.attempted() > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ledger.attempted());
  line += ", \"failed\": " + std::to_string(ledger.failed());
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [metric, value] : metrics) {
    char number[64];
    std::snprintf(number, sizeof number, "%.17g",
                  std::isfinite(value) ? value : 0.0);
    if (!first) line += ", ";
    first = false;
    line += std::string("\"") + metric.name + "\": {\"value\": " + number +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string_view value = argv[i + 1];
    const char* end = value.data() + value.size();
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      if (std::from_chars(value.data(), end, args.seed).ptr != end) return false;
    } else if (key == "--seconds") {
      if (std::from_chars(value.data(), end, args.seconds).ptr != end) return false;
    } else if (key == "--trace") {
      if (std::from_chars(value.data(), end, args.trace).ptr != end) return false;
    } else if (key == "--spans") {
      args.spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0 &&
         args.seconds <= 3600.0 && (args.trace == 0 || args.trace == 1);
}

double elapsed_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// True while another run, as long as the last one, still ends inside the
/// `seconds` budget that started at `started`.
bool time_left(std::chrono::steady_clock::time_point started, double seconds,
               double last_run_s) {
  return elapsed_since(started) + last_run_s <= seconds;
}

bool is_time(const Metric& metric) {
  const std::string_view unit = metric.unit;
  return unit == "s" || unit == "us" || unit == "ns";
}

// Every time reported is the run's wall time divided by the machine's
// slowdown around that run (probe.hpp): the geometric mean of the probes
// just before and just after it.
std::vector<std::pair<Metric, double>> untraced(const Bench& bench,
                                                double seconds,
                                                Ledger& ledger) {
  const auto started = std::chrono::steady_clock::now();
  RunResult warm = bench.run_untraced();
  ledger.note(warm.failures);
  const Outputs reference = warm.outputs;
  // One engine run's high-water, read before the probe allocates its table:
  // later runs reuse the freed heap, and how much of it they fragment varies
  // from process to process.
  const double rss_mib = peak_rss_mib();
  SpeedProbe probe;
  double before = probe.slowdown();
  std::vector<double> setup;
  std::vector<double> run;
  double last_run_s = 0.0;
  while (setup.size() < kMinTimedRuns ||
         time_left(started, seconds, last_run_s)) {
    const auto run_started = std::chrono::steady_clock::now();
    RunResult result = bench.run_untraced();
    const double after = probe.slowdown();
    last_run_s = elapsed_since(run_started);
    const double slowdown = std::sqrt(before * after);
    before = after;
    std::cerr << "damperf: run " << ledger.attempted() + 1 << " setup_s "
              << result.setup_s << " run_s " << result.run_s << " slowdown "
              << slowdown << '\n';
    ledger.record(result, reference, "untraced");
    setup.push_back(result.setup_s / slowdown);
    run.push_back(result.run_s / slowdown);
  }
  const double deliveries = static_cast<double>(reference.first_deliveries);
  return {
      {kEndToEnd[0], median(setup)},
      {kEndToEnd[1], median(run)},
      {kEndToEnd[2], rss_mib},
      {kEndToEnd[3], static_cast<double>(reference.state_bytes) / 1048576.0},
      {kEndToEnd[4], reference.reliability},
      {kEndToEnd[5], reference.latency_p50},
      {kEndToEnd[6], reference.latency_p99},
      {kEndToEnd[7], deliveries == 0.0
                         ? 0.0
                         : static_cast<double>(reference.sent) / deliveries},
  };
}

// Alternates traced and untraced runs after one untraced reference run, so
// the overhead ratio compares runs made under the same conditions. Layer
// times are rescaled like the end-to-end ones, each traced run by its own
// slowdown.
std::vector<std::pair<Metric, double>> traced(const Bench& bench,
                                              double seconds, Ledger& ledger,
                                              const std::string& spans_path) {
  const auto started = std::chrono::steady_clock::now();
  double overhead = 0.0;
  RunResult reference_run = bench.run_untraced(&overhead);
  ledger.note(reference_run.failures);
  const Outputs reference = reference_run.outputs;
  SpeedProbe probe;
  double before = probe.slowdown();
  std::vector<double> sweep_overhead;
  std::vector<double> untraced_run;
  std::vector<double> traced_run;
  std::vector<RunResult> runs;
  std::vector<double> round_us;
  Tracer tracer;
  double last_pair_s = 0.0;
  while (runs.size() < kMinTimedRuns - 1 ||
         time_left(started, seconds, last_pair_s)) {
    const auto pair_started = std::chrono::steady_clock::now();
    const auto op = static_cast<std::int64_t>(tracer.size());
    RunResult result = bench.run_traced(tracer);
    const double middle = probe.slowdown();
    const double traced_slowdown = std::sqrt(before * middle);
    ledger.record(result, reference, "traced");
    traced_run.push_back(result.run_s / traced_slowdown);
    for (auto& [name, value] : result.layers) {
      const auto found = std::find_if(
          std::begin(kPerLayer), std::end(kPerLayer),
          [&](const Metric& metric) { return name == metric.name; });
      if (found != std::end(kPerLayer) && is_time(*found)) {
        value /= traced_slowdown;
      }
    }
    for (const double round_s : tracer.durations("core.run_rounds", op)) {
      round_us.push_back(round_s * 1e6 / traced_slowdown);
    }
    runs.push_back(std::move(result));

    RunResult plain = bench.run_untraced(&overhead);
    before = probe.slowdown();
    const double plain_slowdown = std::sqrt(middle * before);
    ledger.record(plain, reference, "untraced");
    untraced_run.push_back(plain.run_s / plain_slowdown);
    sweep_overhead.push_back(overhead / plain_slowdown);
    last_pair_s = elapsed_since(pair_started);
  }
  if (!spans_path.empty() && !tracer.write_tsv(spans_path)) {
    std::cerr << "damperf: cannot write spans to " << spans_path << '\n';
  }

  std::vector<std::pair<Metric, double>> metrics;
  for (const Metric& metric : kPerLayer) {
    const std::string_view name = metric.name;
    double value = 0.0;
    if (name == "core.round_us_p50") {
      value = percentile(round_us, 0.50);
    } else if (name == "core.round_us_p99") {
      value = percentile(round_us, 0.99);
    } else if (name == "exp.sweep_overhead_s") {
      value = median(sweep_overhead);
    } else if (name == "trace.overhead_ratio") {
      const double plain = median(untraced_run);
      value = plain > 0.0 ? median(traced_run) / plain : 0.0;
    } else {
      std::vector<double> samples;
      for (const RunResult& run : runs) {
        const auto found = run.layers.find(metric.name);
        if (found != run.layers.end()) samples.push_back(found->second);
      }
      value = median(samples);
    }
    metrics.emplace_back(metric, value);
  }
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: damperf --workload publish|churn|frozen --seed N "
                 "--seconds S --trace 0|1 [--spans FILE]\n";
    return 2;
  }
  const auto workload = perfbench::parse_workload(args.workload);
  if (!workload) {
    std::cerr << "damperf: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  Ledger ledger;
  try {
    const Bench bench(*workload, args.seed);
    print_result(ledger, args.trace == 0
                             ? untraced(bench, args.seconds, ledger)
                             : traced(bench, args.seconds, ledger, args.spans));
  } catch (const std::exception& error) {
    std::cerr << "damperf: " << error.what() << '\n';
    return 1;
  }
  return 0;
}

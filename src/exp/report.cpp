#include "exp/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace dam::exp {

void print_sweep_table(const std::vector<ScenarioPoint>& points,
                       std::ostream& out) {
  if (points.empty()) return;
  // Column set is decided once for the whole sweep, by lane: columns whose
  // aggregates collected no samples anywhere stay invisible. In practice
  // frozen sweeps gain the per-group first/full latency columns (every
  // delivering run samples them — the `latency` preset's measurand), while
  // the dynamic-traffic and bootstrap-link columns appear only on runs
  // that produced them; degenerate sweeps (no deliveries at all) collapse
  // to the historical layout.
  bool show_latency = false;
  bool show_dynamic = false;
  bool show_traffic = false;
  bool show_bootstrap = false;
  bool show_slo = false;
  for (const ScenarioPoint& point : points) {
    show_dynamic = show_dynamic || point.publications.count() > 0;
    // A traffic-free stream sweep (bootstrap-cold) would print zero
    // reliability and zero per-group delivery, which read as total
    // delivery failure.
    show_traffic = show_traffic || point.publications.mean() > 0.0;
    show_bootstrap = show_bootstrap || point.rounds_to_link.count() > 0;
    show_slo = show_slo || !point.latency_sketch.empty();
    for (const ScenarioGroupStats& group : point.groups) {
      show_latency = show_latency || group.first_delivery_round.count() > 0;
    }
  }
  // Frozen sweeps always disseminate; stream sweeps only when some point
  // published.
  const bool show_events = !show_dynamic || show_traffic;
  std::vector<std::string> columns{"alive"};
  if (show_events) {
    for (const ScenarioGroupStats& group : points.front().groups) {
      columns.push_back(group.topic + " intra");
      columns.push_back(group.topic + " inter>");
      columns.push_back(group.topic + " recv");
      columns.push_back(group.topic + " >=1");  // P(any intergroup arrival) —
                                                // the paper's Fig. 9 headline
      columns.push_back(group.topic + " frac");
      columns.push_back(group.topic + " all");
      if (show_latency) {
        columns.push_back(group.topic + " first");
        columns.push_back(group.topic + " full");
      }
    }
  }
  if (show_traffic) {
    columns.push_back("pubs");
    columns.push_back("reliab");
    columns.push_back("latency");
  }
  if (show_dynamic) columns.push_back("ctrl msgs");
  if (show_bootstrap) {
    columns.push_back("link rds");
    columns.push_back("linked");
    columns.push_back("ctrl@link");
  }
  if (show_slo) {
    columns.push_back("p50");
    columns.push_back("p90");
    columns.push_back("p99");
    columns.push_back("p999");
    for (const std::size_t deadline : kDeadlineGrid) {
      columns.push_back("<=" + std::to_string(deadline));
    }
  }
  if (show_traffic) columns.push_back("ev send");
  columns.push_back("total msgs");
  columns.push_back("rounds");
  util::ConsoleTable table(columns);
  for (const ScenarioPoint& point : points) {
    std::vector<std::string> cells{util::fixed(point.alive_fraction, 2)};
    if (show_events) {
      for (const ScenarioGroupStats& group : point.groups) {
        cells.push_back(util::fixed(group.intra_sent.mean(), 1));
        cells.push_back(util::fixed(group.inter_sent.mean(), 2));
        cells.push_back(util::fixed(group.inter_received.mean(), 2));
        cells.push_back(util::fixed(group.any_inter_received.estimate(), 2));
        cells.push_back(util::fixed(group.delivery_ratio.mean(), 3));
        cells.push_back(util::fixed(group.all_alive_delivered.estimate(), 2));
        if (show_latency) {
          cells.push_back(util::fixed(group.first_delivery_round.mean(), 1));
          cells.push_back(util::fixed(group.last_delivery_round.mean(), 1));
        }
      }
    }
    if (show_traffic) {
      cells.push_back(util::fixed(point.publications.mean(), 1));
      cells.push_back(util::fixed(point.event_reliability.mean(), 3));
      cells.push_back(util::fixed(point.delivery_latency.mean(), 2));
    }
    if (show_dynamic) {
      cells.push_back(util::fixed(point.msg_control_sends.mean(), 0));
    }
    if (show_bootstrap) {
      cells.push_back(util::fixed(point.rounds_to_link.mean(), 1));
      cells.push_back(util::fixed(point.linked_fraction.mean(), 3));
      cells.push_back(util::fixed(point.control_at_link.mean(), 0));
    }
    if (show_slo) {
      cells.push_back(util::fixed(point.latency_sketch.quantile(0.50), 1));
      cells.push_back(util::fixed(point.latency_sketch.quantile(0.90), 1));
      cells.push_back(util::fixed(point.latency_sketch.quantile(0.99), 1));
      cells.push_back(util::fixed(point.latency_sketch.quantile(0.999), 1));
      for (const std::size_t deadline : kDeadlineGrid) {
        cells.push_back(util::fixed(point.deadline_fraction(deadline), 3));
      }
    }
    if (show_traffic) {
      cells.push_back(util::fixed(point.msg_event_sends.mean(), 0));
    }
    cells.push_back(util::fixed(point.total_messages.mean(), 0));
    cells.push_back(util::fixed(point.rounds.mean(), 1));
    table.row_strings(cells);
  }
  table.print(out);
}

void csv_report_header(util::CsvWriter& csv) {
  std::vector<std::string> columns{
      "scenario", "grid", "alive", "topic", "size", "intra_mean",
      "inter_mean", "recv_mean", "any_recv", "ratio_mean",
      "ratio_ci95", "all_alive", "dup_mean", "first_mean",
      "last_mean", "ctrl_sent_mean", "total_msgs_mean", "rounds_mean",
      "pubs_mean", "reliab_mean", "latency_mean", "latency_max_mean",
      "ctrl_msgs_mean",
      // Latency-SLO block (point-level, repeated per group row).
      "latency_p50", "latency_p90", "latency_p99", "latency_p999",
      "sketch_deliveries", "expected_deliveries"};
  for (const std::size_t deadline : kDeadlineGrid) {
    columns.push_back("within_" + std::to_string(deadline));
  }
  // Message-class totals (dynamic lane; zero for frozen sweeps).
  columns.insert(columns.end(),
                 {"publish_msgs_mean", "event_send_mean", "inter_send_mean",
                  "control_send_mean", "deliver_mean"});
  csv.header(columns);
}

void csv_report_rows(util::CsvWriter& csv, const std::string& scenario,
                     const GridPoint& grid, const SweepResult& sweep) {
  const std::string label = grid_label(grid);
  const auto cell = [](auto value) {
    std::ostringstream os;
    os << value;
    return os.str();
  };
  for (const ScenarioPoint& point : sweep.points) {
    for (const ScenarioGroupStats& group : point.groups) {
      std::vector<std::string> cells{
          scenario,
          label,
          cell(point.alive_fraction),
          group.topic,
          cell(group.size),
          cell(group.intra_sent.mean()),
          cell(group.inter_sent.mean()),
          cell(group.inter_received.mean()),
          cell(group.any_inter_received.estimate()),
          cell(group.delivery_ratio.mean()),
          cell(group.delivery_ratio.ci95_halfwidth()),
          cell(group.all_alive_delivered.estimate()),
          cell(group.duplicate_deliveries.mean()),
          cell(group.first_delivery_round.mean()),
          cell(group.last_delivery_round.mean()),
          cell(group.control_sent.mean()),
          cell(point.total_messages.mean()),
          cell(point.rounds.mean()),
          cell(point.publications.mean()),
          cell(point.event_reliability.mean()),
          cell(point.delivery_latency.mean()),
          cell(point.max_latency.mean()),
          cell(point.msg_control_sends.mean()),
          cell(point.latency_sketch.quantile(0.50)),
          cell(point.latency_sketch.quantile(0.90)),
          cell(point.latency_sketch.quantile(0.99)),
          cell(point.latency_sketch.quantile(0.999)),
          cell(point.latency_sketch.count()),
          cell(point.expected_deliveries)};
      for (const std::size_t deadline : kDeadlineGrid) {
        cells.push_back(cell(point.deadline_fraction(deadline)));
      }
      cells.push_back(cell(point.publications.mean()));
      cells.push_back(cell(point.msg_event_sends.mean()));
      cells.push_back(cell(point.msg_inter_sends.mean()));
      cells.push_back(cell(point.msg_control_sends.mean()));
      cells.push_back(cell(point.msg_delivers.mean()));
      csv.row_strings(cells);
    }
  }
}

void timeline_csv_header(util::CsvWriter& csv) {
  csv.header({"scenario", "grid", "alive", "window_start", "window_rounds",
              "deliveries", "reliability_so_far", "latency_p50", "latency_p99",
              "publishes", "event_sends", "inter_sends", "control_sends",
              "joins", "leaves", "crashes", "recovers", "queue_peak_bytes",
              "seen_bytes", "delivered_bytes", "request_bytes"});
}

void timeline_csv_rows(util::CsvWriter& csv, const std::string& scenario,
                       const GridPoint& grid, const SweepResult& sweep) {
  const std::string label = grid_label(grid);
  const auto cell = [](auto value) {
    std::ostringstream os;
    os << value;
    return os.str();
  };
  for (const ScenarioPoint& point : sweep.points) {
    const util::Timeline& timeline = point.timeline;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < timeline.windows().size(); ++i) {
      const util::Timeline::Window& window = timeline.windows()[i];
      const util::Timeline::Counters counts = timeline.window_counters(i);
      cumulative += counts.deliveries;
      double reliability = 0.0;
      if (point.expected_deliveries > 0) {
        reliability = std::min(
            1.0, static_cast<double>(cumulative) /
                     static_cast<double>(point.expected_deliveries));
      }
      csv.row_strings({scenario, label, cell(point.alive_fraction),
                       cell(i * timeline.window_rounds()),
                       cell(timeline.window_rounds()),
                       cell(counts.deliveries), cell(reliability),
                       cell(window.latency.quantile(0.50)),
                       cell(window.latency.quantile(0.99)),
                       cell(counts.publishes), cell(counts.event_sends),
                       cell(counts.inter_sends), cell(counts.control_sends),
                       cell(counts.joins), cell(counts.leaves),
                       cell(counts.crashes), cell(counts.recovers),
                       cell(window.queue_peak_bytes), cell(window.seen_bytes),
                       cell(window.delivered_bytes),
                       cell(window.request_bytes)});
    }
  }
}

// --- JSON emission ---------------------------------------------------------

namespace {

/// RFC 8259 string escaping (quotes, backslash, control characters).
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// JSON has no NaN/Infinity; serialize those as null.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream os;
  os.precision(15);
  os << value;
  return os.str();
}

void emit_accumulator(std::ostream& out, const char* key,
                      const util::Accumulator& acc) {
  out << '"' << key << "\":{\"mean\":" << json_number(acc.mean())
      << ",\"ci95\":" << json_number(acc.ci95_halfwidth())
      << ",\"min\":" << json_number(acc.min())
      << ",\"max\":" << json_number(acc.max()) << ",\"count\":" << acc.count()
      << '}';
}

void emit_latency_quantiles(std::ostream& out,
                            const util::QuantileSketch& sketch) {
  out << "\"latency_quantiles\":{\"p50\":" << json_number(sketch.quantile(0.50))
      << ",\"p90\":" << json_number(sketch.quantile(0.90))
      << ",\"p99\":" << json_number(sketch.quantile(0.99))
      << ",\"p999\":" << json_number(sketch.quantile(0.999))
      << ",\"min\":" << json_number(sketch.min())
      << ",\"max\":" << json_number(sketch.max())
      << ",\"count\":" << sketch.count()
      << ",\"compacted\":" << (sketch.compacted() ? "true" : "false") << '}';
}

void emit_timeline(std::ostream& out, const ScenarioPoint& point) {
  const util::Timeline& timeline = point.timeline;
  out << "\"timeline\":{\"window\":" << timeline.window_rounds()
      << ",\"peak_bookkeeping_bytes\":" << timeline.peak_bookkeeping_bytes()
      << ",\"windows\":[";
  std::uint64_t cumulative = 0;
  bool first = true;
  for (std::size_t i = 0; i < timeline.windows().size(); ++i) {
    const util::Timeline::Window& w = timeline.windows()[i];
    const util::Timeline::Counters c = timeline.window_counters(i);
    cumulative += c.deliveries;
    double reliability = 0.0;
    if (point.expected_deliveries > 0) {
      reliability =
          std::min(1.0, static_cast<double>(cumulative) /
                            static_cast<double>(point.expected_deliveries));
    }
    if (!first) out << ',';
    first = false;
    out << "{\"start_round\":" << i * timeline.window_rounds()
        << ",\"deliveries\":" << c.deliveries
        << ",\"reliability_so_far\":" << json_number(reliability)
        << ",\"latency_p50\":" << json_number(w.latency.quantile(0.50))
        << ",\"latency_p99\":" << json_number(w.latency.quantile(0.99))
        << ",\"publishes\":" << c.publishes
        << ",\"event_sends\":" << c.event_sends
        << ",\"inter_sends\":" << c.inter_sends
        << ",\"control_sends\":" << c.control_sends << ",\"joins\":" << c.joins
        << ",\"leaves\":" << c.leaves << ",\"crashes\":" << c.crashes
        << ",\"recovers\":" << c.recovers
        << ",\"queue_peak_bytes\":" << w.queue_peak_bytes
        << ",\"seen_bytes\":" << w.seen_bytes
        << ",\"delivered_bytes\":" << w.delivered_bytes
        << ",\"request_bytes\":" << w.request_bytes << '}';
  }
  out << ']';
  // Two counters of the timeline rows, unwindowed (summed over runs, so
  // jobs-independent), each trimmed after its last nonzero round.
  const auto emit_series = [&](const char* key,
                               std::uint64_t util::Timeline::Counters::*
                                   counter) {
    out << ",\"" << key << "\":[";
    const std::vector<std::uint64_t> series = timeline.per_round(counter);
    for (std::size_t i = 0; i < series.size(); ++i) {
      if (i != 0) out << ',';
      out << series[i];
    }
    out << ']';
  };
  emit_series("deliveries_per_round", &util::Timeline::Counters::deliveries);
  emit_series("control_per_round", &util::Timeline::Counters::control_sends);
  out << '}';
}

void emit_deadline_curve(std::ostream& out, const ScenarioPoint& point) {
  out << "\"deadline_curve\":[";
  bool first = true;
  for (const std::size_t deadline : kDeadlineGrid) {
    if (!first) out << ',';
    first = false;
    out << "{\"deadline\":" << deadline << ",\"fraction\":"
        << json_number(point.deadline_fraction(deadline)) << '}';
  }
  out << ']';
}

}  // namespace

void BenchReport::add(std::string scenario, GridPoint grid,
                      const SweepResult& sweep) {
  records_.push_back(Record{std::move(scenario), std::move(grid), sweep});
}

void BenchReport::write(std::ostream& out) const {
  out << "{\"schema\":\"damlab-bench-v1\",\"sweeps\":[";
  bool first_sweep = true;
  for (const Record& record : records_) {
    if (!first_sweep) out << ',';
    first_sweep = false;
    const SweepResult& sweep = record.sweep;
    const double wall = sweep.wall_seconds;
    const double runs_per_sec =
        wall > 0.0 ? static_cast<double>(sweep.total_runs) / wall : 0.0;
    const double events_per_sec =
        wall > 0.0 ? static_cast<double>(sweep.total_events) / wall : 0.0;
    out << "{\"scenario\":\"" << json_escape(record.scenario) << "\","
        << "\"grid\":{";
    bool first_axis = true;
    for (const auto& [key, value] : record.grid) {
      if (!first_axis) out << ',';
      first_axis = false;
      out << '"' << json_escape(key) << "\":" << json_number(value);
    }
    out << "},\"jobs\":" << sweep.jobs
        << ",\"threads\":" << sweep.threads
        << ",\"wall_seconds\":" << json_number(wall)
        << ",\"table_build_seconds\":"
        << json_number(sweep.table_build_seconds)
        << ",\"dissemination_seconds\":"
        << json_number(sweep.dissemination_seconds)
        << ",\"peak_table_bytes\":" << sweep.peak_table_bytes
        << ",\"peak_queue_bytes\":" << sweep.peak_queue_bytes
        << ",\"peak_bookkeeping_bytes\":" << sweep.peak_bookkeeping_bytes
        << ",\"runs\":" << sweep.total_runs
        << ",\"runs_per_sec\":" << json_number(runs_per_sec)
        << ",\"events\":" << sweep.total_events
        << ",\"events_per_sec\":" << json_number(events_per_sec);
    // Sweep-level pooled latency percentiles (points merged in point
    // order — deterministic), the scalars tools/bench_diff gates on.
    util::QuantileSketch pooled;
    for (const ScenarioPoint& point : sweep.points) {
      pooled.merge(point.latency_sketch);
    }
    out << ",\"latency_p50\":" << json_number(pooled.quantile(0.50))
        << ",\"latency_p90\":" << json_number(pooled.quantile(0.90))
        << ",\"latency_p99\":" << json_number(pooled.quantile(0.99))
        << ",\"latency_p999\":" << json_number(pooled.quantile(0.999))
        << ",\"latency_count\":" << pooled.count()
        << ",\"points\":[";
    bool first_point = true;
    for (const ScenarioPoint& point : sweep.points) {
      if (!first_point) out << ',';
      first_point = false;
      out << "{\"alive\":" << json_number(point.alive_fraction) << ',';
      emit_accumulator(out, "total_messages", point.total_messages);
      out << ',';
      emit_accumulator(out, "rounds", point.rounds);
      out << ',';
      emit_accumulator(out, "publications", point.publications);
      out << ',';
      emit_accumulator(out, "event_reliability", point.event_reliability);
      out << ',';
      emit_accumulator(out, "delivery_latency", point.delivery_latency);
      out << ',';
      emit_accumulator(out, "max_latency", point.max_latency);
      out << ',';
      emit_accumulator(out, "control_messages", point.msg_control_sends);
      out << ',';
      emit_accumulator(out, "rounds_to_link", point.rounds_to_link);
      out << ',';
      emit_accumulator(out, "linked_fraction", point.linked_fraction);
      out << ',';
      emit_accumulator(out, "control_at_link", point.control_at_link);
      out << ',';
      emit_latency_quantiles(out, point.latency_sketch);
      out << ",\"expected_deliveries\":" << point.expected_deliveries << ',';
      emit_deadline_curve(out, point);
      out << ",\"message_classes\":{";
      emit_accumulator(out, "publishes", point.publications);
      out << ',';
      emit_accumulator(out, "event_sends", point.msg_event_sends);
      out << ',';
      emit_accumulator(out, "inter_sends", point.msg_inter_sends);
      out << ',';
      emit_accumulator(out, "control_sends", point.msg_control_sends);
      out << ',';
      emit_accumulator(out, "delivers", point.msg_delivers);
      out << '}';
      out << ',';
      emit_timeline(out, point);
      out << ",\"groups\":[";
      bool first_group = true;
      for (const ScenarioGroupStats& group : point.groups) {
        if (!first_group) out << ',';
        first_group = false;
        out << "{\"topic\":\"" << json_escape(group.topic)
            << "\",\"size\":" << group.size << ',';
        emit_accumulator(out, "intra_sent", group.intra_sent);
        out << ',';
        emit_accumulator(out, "inter_sent", group.inter_sent);
        out << ',';
        emit_accumulator(out, "inter_received", group.inter_received);
        out << ',';
        emit_accumulator(out, "delivery_ratio", group.delivery_ratio);
        out << ',';
        emit_accumulator(out, "duplicate_deliveries",
                         group.duplicate_deliveries);
        out << ',';
        emit_accumulator(out, "first_round", group.first_delivery_round);
        out << ',';
        emit_accumulator(out, "last_round", group.last_delivery_round);
        out << ',';
        emit_accumulator(out, "control_sent", group.control_sent);
        out << ",\"all_alive_delivered\":"
            << json_number(group.all_alive_delivered.estimate())
            << ",\"any_inter_received\":"
            << json_number(group.any_inter_received.estimate())
            << ",\"reliability_trials\":" << group.all_alive_delivered.trials
            << '}';
      }
      out << "]}";
    }
    out << "]}";
  }
  out << "]}\n";
}

void BenchReport::write_file(const std::string& path) const {
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("BenchReport: cannot open '" + path + "'");
  }
  write(file);
}

}  // namespace dam::exp

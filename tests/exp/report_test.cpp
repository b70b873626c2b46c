// exp/report: the console table, the long-format CSV reporter, and the
// "damlab-bench-v1" JSON document (schema-validated here with a small
// recursive-descent JSON parser — the emitter must produce strictly valid
// JSON, not just something that eyeballs well).
#include "exp/report.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>

#include "exp/runner.hpp"
#include "sim/scenario.hpp"

namespace dam::exp {
namespace {

// --- Minimal strict JSON syntax checker ------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  /// True iff the whole input is exactly one valid JSON value.
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') return ++pos_, true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

SweepResult tiny_sweep(const sim::Scenario& scenario) {
  return run_sweep(scenario, {.jobs = 2});
}

sim::Scenario tiny_scenario() {
  sim::Scenario scenario =
      sim::make_linear_scenario("tiny", "tiny", {5, 40});
  scenario.alive_sweep = {0.5, 1.0};
  scenario.runs = 4;
  return scenario;
}

TEST(BenchReport, EmitsStrictlyValidJson) {
  BenchReport report;
  report.add("fig9", {{"a", 2.0}, {"g", 10.0}}, tiny_sweep(tiny_scenario()));
  report.add("fig9", {}, tiny_sweep(tiny_scenario()));
  std::ostringstream out;
  report.write(out);
  EXPECT_TRUE(JsonChecker(out.str()).valid()) << out.str();
}

TEST(BenchReport, DocumentCarriesTheV1Schema) {
  BenchReport report;
  report.add("fig9", {{"a", 2.0}}, tiny_sweep(tiny_scenario()));
  std::ostringstream out;
  report.write(out);
  const std::string json = out.str();
  // Envelope.
  EXPECT_NE(json.find("\"schema\":\"damlab-bench-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"sweeps\":["), std::string::npos);
  // Per-sweep throughput block.
  for (const char* key :
       {"\"scenario\":", "\"grid\":", "\"jobs\":", "\"wall_seconds\":",
        "\"table_build_seconds\":", "\"dissemination_seconds\":",
        "\"peak_table_bytes\":", "\"runs\":", "\"runs_per_sec\":",
        "\"events\":", "\"events_per_sec\":", "\"points\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Per-point and per-group aggregates (including the dynamic-lane and
  // bootstrap-lane blocks, emitted with zero samples on frozen sweeps).
  for (const char* key :
       {"\"alive\":", "\"total_messages\":", "\"rounds\":", "\"groups\":",
        "\"topic\":", "\"size\":", "\"intra_sent\":", "\"inter_sent\":",
        "\"inter_received\":", "\"delivery_ratio\":",
        "\"duplicate_deliveries\":", "\"all_alive_delivered\":",
        "\"any_inter_received\":", "\"reliability_trials\":",
        "\"publications\":", "\"event_reliability\":",
        "\"delivery_latency\":", "\"max_latency\":", "\"control_messages\":",
        "\"rounds_to_link\":", "\"linked_fraction\":", "\"control_at_link\":",
        "\"first_round\":", "\"last_round\":", "\"control_sent\":",
        "\"mean\":", "\"ci95\":", "\"min\":", "\"max\":", "\"count\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Latency-SLO block: sweep-level pooled percentiles, per-point quantile
  // sketch summary, deadline curve, and message-class counters.
  for (const char* key :
       {"\"latency_p50\":", "\"latency_p90\":", "\"latency_p99\":",
        "\"latency_p999\":", "\"latency_count\":", "\"latency_quantiles\":",
        "\"p50\":", "\"p90\":", "\"p99\":", "\"p999\":", "\"compacted\":",
        "\"expected_deliveries\":", "\"deadline_curve\":", "\"deadline\":",
        "\"fraction\":", "\"message_classes\":", "\"publishes\":",
        "\"event_sends\":", "\"inter_sends\":", "\"control_sends\":",
        "\"delivers\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Flight-recorder block: the sweep-level bookkeeping peak, the windowed
  // time series, and the per-round vectors.
  for (const char* key :
       {"\"peak_bookkeeping_bytes\":", "\"timeline\":", "\"window\":",
        "\"windows\":", "\"start_round\":", "\"deliveries\":",
        "\"reliability_so_far\":", "\"joins\":", "\"leaves\":",
        "\"crashes\":", "\"recovers\":", "\"queue_peak_bytes\":",
        "\"seen_bytes\":", "\"delivered_bytes\":", "\"request_bytes\":",
        "\"deliveries_per_round\":", "\"control_per_round\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"grid\":{\"a\":2}"), std::string::npos);
}

TEST(BenchReport, DynamicSweepEmitsValidJsonWithTrafficAggregates) {
  const sim::Scenario* preset = sim::find_scenario("zipf-storm");
  ASSERT_NE(preset, nullptr);
  sim::Scenario scenario = *preset;
  scenario.runs = 2;
  scenario.alive_sweep = {1.0};
  BenchReport report;
  report.add("zipf-storm", {}, tiny_sweep(scenario));
  std::ostringstream out;
  report.write(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // The dynamic lane actually filled the traffic aggregates: the
  // publications block must carry a non-zero count.
  const std::size_t at = json.find("\"publications\":{");
  ASSERT_NE(at, std::string::npos);
  const std::size_t count = json.find("\"count\":", at);
  ASSERT_NE(count, std::string::npos);
  EXPECT_NE(json[count + 8], '0');
}

TEST(BenchReport, EscapesHostileStrings) {
  sim::Scenario scenario = tiny_scenario();
  scenario.topic_names = {std::string("T\"0\\\n"), "T1"};
  BenchReport report;
  report.add("we\"ird\tname", {}, tiny_sweep(scenario));
  std::ostringstream out;
  report.write(out);
  EXPECT_TRUE(JsonChecker(out.str()).valid()) << out.str();
}

TEST(BenchReport, SweepCountTracksAdds) {
  BenchReport report;
  EXPECT_EQ(report.sweep_count(), 0u);
  report.add("fig9", {}, tiny_sweep(tiny_scenario()));
  report.add("fig10", {}, tiny_sweep(tiny_scenario()));
  EXPECT_EQ(report.sweep_count(), 2u);
}

TEST(CsvReport, OneRowPerSweepPointAndGroup) {
  const sim::Scenario scenario = tiny_scenario();  // 2 points × 2 groups
  const SweepResult sweep = tiny_sweep(scenario);
  std::ostringstream out;
  util::CsvWriter csv(out);
  csv_report_header(csv);
  csv_report_rows(csv, scenario.name, {{"g", 5.0}}, sweep);
  const std::string text = out.str();
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n';
  EXPECT_EQ(lines, 1u + 2u * 2u);  // header + points × groups
  EXPECT_NE(text.find("scenario,grid,alive,topic"), std::string::npos);
  EXPECT_NE(text.find("tiny,g=5,"), std::string::npos);
}

TEST(TimelineCsv, OneRowPerSweepPointAndWindow) {
  const sim::Scenario scenario = tiny_scenario();
  const SweepResult sweep = tiny_sweep(scenario);
  std::ostringstream out;
  util::CsvWriter csv(out);
  timeline_csv_header(csv);
  timeline_csv_rows(csv, scenario.name, {{"g", 5.0}}, sweep);
  const std::string text = out.str();
  std::size_t expected_rows = 0;
  for (const ScenarioPoint& point : sweep.points) {
    expected_rows += point.timeline.windows().size();
  }
  ASSERT_GT(expected_rows, 0u);
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n';
  EXPECT_EQ(lines, 1u + expected_rows);
  EXPECT_NE(text.find("scenario,grid,alive,window_start"), std::string::npos);
  EXPECT_NE(text.find("tiny,g=5,"), std::string::npos);
}

TEST(PrintSweepTable, RendersOneRowPerPoint) {
  const SweepResult sweep = tiny_sweep(tiny_scenario());
  std::ostringstream table_out;
  print_sweep_table(sweep.points, table_out);
  const std::string table = table_out.str();
  EXPECT_NE(table.find("alive"), std::string::npos);
  EXPECT_NE(table.find("T0 intra"), std::string::npos);
  EXPECT_NE(table.find("total msgs"), std::string::npos);
  // Header, separator, then one row per sweep point.
  std::size_t lines = 0;
  for (const char c : table) lines += c == '\n';
  EXPECT_EQ(lines, 2u + sweep.points.size());
  // A stream sweep that published nothing (bootstrap-cold) keeps its
  // control column but not the traffic, per-group event and event-send
  // columns, whose zeros would read as total delivery failure; one
  // publishing point brings them back. The control count is printed once.
  std::vector<ScenarioPoint> quiet = sweep.points;
  for (ScenarioPoint& point : quiet) {
    point.publications.add(0.0);
    point.msg_event_sends.add(0.0);
    point.msg_control_sends.add(12.0);
  }
  std::ostringstream quiet_out;
  print_sweep_table(quiet, quiet_out);
  EXPECT_NE(quiet_out.str().find("ctrl msgs"), std::string::npos);
  EXPECT_EQ(quiet_out.str().find("pubs"), std::string::npos);
  EXPECT_EQ(quiet_out.str().find("reliab"), std::string::npos);
  EXPECT_EQ(quiet_out.str().find("T0 intra"), std::string::npos);
  EXPECT_EQ(quiet_out.str().find("T1 all"), std::string::npos);
  EXPECT_EQ(quiet_out.str().find("ev send"), std::string::npos);
  quiet.back().publications.add(2.0);
  std::ostringstream traffic_out;
  print_sweep_table(quiet, traffic_out);
  EXPECT_NE(traffic_out.str().find("pubs"), std::string::npos);
  EXPECT_NE(traffic_out.str().find("reliab"), std::string::npos);
  EXPECT_NE(traffic_out.str().find("T0 intra"), std::string::npos);
  EXPECT_NE(traffic_out.str().find("T1 all"), std::string::npos);
  EXPECT_NE(traffic_out.str().find("ev send"), std::string::npos);
  EXPECT_EQ(traffic_out.str().find("ctl send"), std::string::npos);
  // Empty sweeps print nothing rather than an empty header.
  std::ostringstream empty;
  print_sweep_table({}, empty);
  EXPECT_TRUE(empty.str().empty());
}

}  // namespace
}  // namespace dam::exp

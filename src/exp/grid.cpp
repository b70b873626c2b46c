#include "exp/grid.hpp"

#include <cctype>
#include <cmath>
#include <stdexcept>

namespace dam::exp {

namespace {

const char* const kKnownKeys[] = {
    "a",     "b",      "c",     "g",          "psucc",      "tau",
    "z",     "alive",  "scale", "depth",      "fanin",      "runs",
    "rate",  "zipf_s", "crash_frac", "leave_frac", "join_frac",
    "publishers", "horizon", "gc_horizon"};

/// Shared guard of the stream-lane axes (traffic, churn, steady): the
/// frozen engine has no traffic stream, so sweeping one of these knobs
/// there would run N bit-identical cells mislabeled as different levels.
/// The dynamic engine and both steady baselines all replay the generated
/// stream, so all of them accept these axes.
void require_stream_axis(const sim::Scenario& scenario,
                         std::string_view key) {
  if (!sim::is_stream_engine(scenario.engine)) {
    throw std::invalid_argument(
        "grid: " + std::string(key) +
        " is a stream-lane axis (the frozen engine has no traffic "
        "stream); pick a kDynamic or baseline scenario");
  }
}

/// The churn axes additionally need a probability-shaped value.
void require_stream_churn_axis(const sim::Scenario& scenario,
                               std::string_view key, double value) {
  require_stream_axis(scenario, key);
  if (value < 0.0 || value > 1.0) {
    throw std::invalid_argument("grid: " + std::string(key) +
                                " must be in [0, 1]");
  }
}

bool known_key(std::string_view key) {
  for (const char* candidate : kKnownKeys) {
    if (key == candidate) return true;
  }
  return false;
}

double parse_number(std::string_view text, std::string_view axis) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(std::string(text), &consumed);
    if (consumed != text.size()) throw std::invalid_argument("trailing junk");
    // NaN/inf would sail through every later domain check (all written as
    // `value < bound`), poisoning seeds and run counts downstream.
    if (!std::isfinite(value)) throw std::invalid_argument("not finite");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("grid axis '" + std::string(axis) +
                                "': bad number '" + std::string(text) + "'");
  }
}

/// Appends `item` (a number or an inclusive lo:hi[:step] range) to `values`.
void expand_item(std::string_view item, std::string_view axis,
                 std::vector<double>& values) {
  const std::size_t colon = item.find(':');
  if (colon == std::string_view::npos) {
    values.push_back(parse_number(item, axis));
    return;
  }
  const std::size_t colon2 = item.find(':', colon + 1);
  const double lo = parse_number(item.substr(0, colon), axis);
  const double hi = parse_number(
      item.substr(colon + 1, (colon2 == std::string_view::npos
                                  ? std::string_view::npos
                                  : colon2 - colon - 1)),
      axis);
  const double step = colon2 == std::string_view::npos
                          ? 1.0
                          : parse_number(item.substr(colon2 + 1), axis);
  if (step <= 0.0 || hi < lo) {
    throw std::invalid_argument("grid axis '" + std::string(axis) +
                                "': bad range '" + std::string(item) +
                                "' (need lo <= hi, step > 0)");
  }
  // Half-step tolerance keeps the endpoint in despite accumulation error.
  for (double v = lo; v <= hi + step * 0.5; v += step) {
    values.push_back(v);
    if (values.size() > 10000) {
      throw std::invalid_argument("grid axis '" + std::string(axis) +
                                  "': more than 10000 values");
    }
  }
}

}  // namespace

std::vector<GridAxis> parse_grid(std::string_view spec) {
  std::vector<GridAxis> axes;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    if (std::isspace(static_cast<unsigned char>(spec[pos])) ||
        spec[pos] == ';') {
      ++pos;
      continue;
    }
    std::size_t end = pos;
    while (end < spec.size() && spec[end] != ';' &&
           !std::isspace(static_cast<unsigned char>(spec[end]))) {
      ++end;
    }
    const std::string_view token = spec.substr(pos, end - pos);
    pos = end;

    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == token.size()) {
      throw std::invalid_argument("grid: axis '" + std::string(token) +
                                  "' is not of the form key=values");
    }
    GridAxis axis;
    axis.key = std::string(token.substr(0, eq));
    if (!known_key(axis.key)) {
      throw std::invalid_argument("grid: unknown key '" + axis.key + "'");
    }
    for (const GridAxis& existing : axes) {
      if (existing.key == axis.key) {
        throw std::invalid_argument("grid: key '" + axis.key +
                                    "' appears twice");
      }
    }
    std::string_view rest = token.substr(eq + 1);
    while (!rest.empty()) {
      const std::size_t comma = rest.find(',');
      expand_item(rest.substr(0, comma), token, axis.values);
      if (comma == std::string_view::npos) break;
      rest.remove_prefix(comma + 1);
      if (rest.empty()) {
        throw std::invalid_argument("grid axis '" + std::string(token) +
                                    "': trailing comma");
      }
    }
    if (axis.values.empty()) {
      throw std::invalid_argument("grid axis '" + std::string(token) +
                                  "': no values");
    }
    axes.push_back(std::move(axis));
  }
  return axes;
}

std::vector<GridPoint> expand_grid(const std::vector<GridAxis>& axes) {
  for (const GridAxis& axis : axes) {
    if (axis.values.empty()) {
      throw std::invalid_argument("expand_grid: axis '" + axis.key +
                                  "' has no values");
    }
  }
  std::vector<GridPoint> points{GridPoint{}};
  std::size_t total = 1;
  for (const GridAxis& axis : axes) {
    // The per-axis cap alone still lets a two-axis product reach 1e8
    // points and OOM before anything useful runs; fail fast instead.
    total *= axis.values.size();
    if (total > 100000) {
      throw std::invalid_argument(
          "expand_grid: more than 100000 grid cells");
    }
    std::vector<GridPoint> next;
    next.reserve(points.size() * axis.values.size());
    for (const GridPoint& prefix : points) {
      for (double value : axis.values) {
        GridPoint point = prefix;
        point.emplace_back(axis.key, value);
        next.push_back(std::move(point));
      }
    }
    points = std::move(next);
  }
  return points;
}

void apply_grid_point(sim::Scenario& scenario, const GridPoint& point) {
  if (scenario.params.empty()) scenario.params = {core::TopicParams{}};
  for (const auto& [key, value] : point) {
    if (key == "alive") {
      if (value < 0.0 || value > 1.0) {
        throw std::invalid_argument("grid: alive must be in [0, 1]");
      }
      scenario.alive_sweep = {value};
    } else if (key == "scale") {
      if (value <= 0.0) {
        throw std::invalid_argument("grid: scale must be positive");
      }
      for (std::size_t& size : scenario.group_sizes) {
        const long long scaled =
            std::llround(static_cast<double>(size) * value);
        size = static_cast<std::size_t>(std::max(1LL, scaled));
      }
    } else if (key == "depth") {
      if (value < 1.0 || value > 64.0) {
        throw std::invalid_argument("grid: depth must be in [1, 64]");
      }
      const std::size_t depth =
          static_cast<std::size_t>(std::llround(value));
      // Rebuild the topology as a linear hierarchy rooted at a small top
      // group: keep the bottom (publish) group size, shrink 10x per level
      // going up, floored at 10 subscribers (or at the bottom size itself
      // when that is already smaller). Replaces any existing DAG shape.
      const std::size_t bottom =
          scenario.group_sizes.empty() ? 1 : scenario.group_sizes.back();
      std::vector<std::size_t> sizes(depth);
      std::size_t size = bottom;
      for (std::size_t level = depth; level-- > 0;) {
        sizes[level] = size;
        size = std::max<std::size_t>(std::min<std::size_t>(10, size),
                                     size / 10);
      }
      sim::Scenario rebuilt = sim::make_linear_scenario(
          scenario.name, scenario.summary, std::move(sizes));
      scenario.topic_names = std::move(rebuilt.topic_names);
      scenario.super_edges = std::move(rebuilt.super_edges);
      scenario.group_sizes = std::move(rebuilt.group_sizes);
      scenario.publish_topic = rebuilt.publish_topic;
    } else if (key == "fanin") {
      if (value < 1.0 || value > 64.0) {
        throw std::invalid_argument("grid: fanin must be in [1, 64]");
      }
      const std::size_t fanin = static_cast<std::size_t>(std::llround(value));
      // Rebuild the topology as a multi-parent DAG: one bottom (publish)
      // topic B under `fanin` disjoint parent topics P0..P{k-1}. Keeps the
      // current bottom group size; each parent gets a tenth of it (floor
      // 10), mirroring the depth axis's shrink rule. Replaces any existing
      // shape — this is the DAG counterpart of the `depth` axis, so the
      // ROADMAP's "no DAG fan-in sweep" gap closes with one grid spec:
      //   --grid "fanin=1:8"
      // (frozen engine only; the dynamic lane needs a tree).
      const std::size_t bottom =
          scenario.group_sizes.empty() ? 1 : scenario.group_sizes.back();
      const std::size_t parent_size =
          std::max<std::size_t>(std::min<std::size_t>(10, bottom), bottom / 10);
      scenario.topic_names.clear();
      scenario.super_edges.clear();
      scenario.group_sizes.clear();
      for (std::size_t p = 0; p < fanin; ++p) {
        std::string topic = "P";
        topic += std::to_string(p);
        scenario.topic_names.push_back(std::move(topic));
        scenario.group_sizes.push_back(parent_size);
        scenario.super_edges.emplace_back(static_cast<std::uint32_t>(fanin),
                                          static_cast<std::uint32_t>(p));
      }
      scenario.topic_names.push_back("B");
      scenario.group_sizes.push_back(bottom);
      scenario.publish_topic = static_cast<std::uint32_t>(fanin);
    } else if (key == "rate") {
      // Dynamic-lane axis: expected publications per round (Poisson and
      // the flashcrowd background). The frozen engine ignores the
      // workload entirely, so there the axis would sweep N bit-identical
      // cells mislabeled as different rates — reject instead. Likewise,
      // kScheduled arrivals never read the rate, so sweeping it switches
      // them to kPoisson (the sweep must actually sweep). The traffic
      // generator clamps Poisson draws at rate 64 — beyond that is a
      // misconfiguration, not a workload — so the axis shares that
      // domain.
      require_stream_axis(scenario, key);
      if (value < 0.0 || value > 64.0) {
        throw std::invalid_argument("grid: rate must be in [0, 64]");
      }
      if (scenario.workload.arrival.kind == workload::ArrivalKind::kScheduled) {
        scenario.workload.arrival.kind = workload::ArrivalKind::kPoisson;
      }
      scenario.workload.arrival.rate = value;
    } else if (key == "zipf_s") {
      // Dynamic-lane axis: the Zipf popularity exponent. Sweeping it also
      // switches the popularity model to kZipf — the exponent is dead
      // state under kSingle/kUniform, and a sweep that silently did
      // nothing would mislabel its results (s = 0 IS uniform, so the
      // degenerate point stays reachable). Frozen scenarios are rejected
      // for the same reason as `rate`.
      require_stream_axis(scenario, key);
      if (value < 0.0 || value > 16.0) {
        throw std::invalid_argument("grid: zipf_s must be in [0, 16]");
      }
      scenario.workload.popularity.kind = workload::PopularityKind::kZipf;
      scenario.workload.popularity.zipf_s = value;
    } else if (key == "crash_frac") {
      // Dynamic-lane churn axis: P(an initial process suffers one
      // crash/recover outage during the stream).
      require_stream_churn_axis(scenario, key, value);
      scenario.workload.churn.crash_fraction = value;
    } else if (key == "leave_frac") {
      // Dynamic-lane churn axis: P(an initial process leaves for good).
      require_stream_churn_axis(scenario, key, value);
      scenario.workload.churn.leave_fraction = value;
    } else if (key == "join_frac") {
      // Dynamic-lane churn axis: fresh joins over the horizon as a
      // fraction of the INITIAL population — a ratio, so one grid spec
      // sweeps sensibly across `scale` values (churn.joins itself is an
      // absolute count).
      require_stream_churn_axis(scenario, key, value);
      std::size_t initial = 0;
      for (const std::size_t size : scenario.group_sizes) initial += size;
      scenario.workload.churn.joins = static_cast<std::size_t>(
          std::llround(value * static_cast<double>(initial)));
    } else if (key == "publishers") {
      // Steady-lane axis: concurrent publisher count of the sustained-
      // service generator. Setting it > 0 switches the scenario onto the
      // steady arrival lane (workload.steady replaces the single-arrival
      // stream); 0 switches back to the scenario's arrival model.
      require_stream_axis(scenario, key);
      if (value < 0.0 || value > 1e6) {
        throw std::invalid_argument("grid: publishers must be in [0, 1e6]");
      }
      scenario.workload.steady.publishers =
          static_cast<std::size_t>(std::llround(value));
    } else if (key == "horizon") {
      // Steady-lane axis: rounds of traffic generation (the long-horizon
      // knob; the arrival horizon is shared by every arrival model).
      require_stream_axis(scenario, key);
      if (value < 1.0 || value > 1e7) {
        throw std::invalid_argument("grid: horizon must be in [1, 1e7]");
      }
      scenario.workload.arrival.horizon =
          static_cast<std::size_t>(std::llround(value));
    } else if (key == "gc_horizon") {
      // Steady-lane axis: seen-column GC horizon in rounds (0 = GC off,
      // the historical unbounded-bookkeeping behavior).
      // Sweeping "gc_horizon=0,64" makes the GC-on/off divergence of
      // peak_bookkeeping_bytes visible inside one report.
      require_stream_axis(scenario, key);
      if (value < 0.0 || value > 1e9) {
        throw std::invalid_argument("grid: gc_horizon must be in [0, 1e9]");
      }
      scenario.workload.engine.gc_horizon =
          static_cast<std::size_t>(std::llround(value));
    } else if (key == "runs") {
      // Bounded on both sides: a huge value would wrap the int cast and
      // silently run ~1.4e9 sweeps instead of erroring.
      if (value < 1.0 || value > 1e9) {
        throw std::invalid_argument("grid: runs must be in [1, 1e9]");
      }
      scenario.runs = static_cast<int>(std::llround(value));
    } else {
      for (core::TopicParams& params : scenario.params) {
        if (key == "a") {
          params.a = value;
          // Sweeping a past the table size would leave the paper's domain
          // (1 <= a <= z); grow the table so "a=1:4" just works.
          if (value > static_cast<double>(params.z)) {
            params.z = static_cast<std::size_t>(std::ceil(value));
          }
        } else if (key == "b") {
          params.b = value;
        } else if (key == "c") {
          params.c = value;
        } else if (key == "g") {
          params.g = value;
        } else if (key == "psucc") {
          params.psucc = value;
        } else if (key == "tau") {
          // Negative values would wrap the size_t cast to ~1.8e19 and
          // sail through validate(); bound both integral knobs first.
          if (value < 0.0 || value > 1e9) {
            throw std::invalid_argument("grid: tau must be in [0, 1e9]");
          }
          params.tau = static_cast<std::size_t>(std::llround(value));
        } else if (key == "z") {
          if (value < 0.0 || value > 1e9) {
            throw std::invalid_argument("grid: z must be in [0, 1e9]");
          }
          params.z = static_cast<std::size_t>(std::llround(value));
        } else {
          throw std::invalid_argument("grid: unknown key '" + key + "'");
        }
        params.validate();
      }
    }
  }
}

std::string grid_label(const GridPoint& point) {
  std::string label;
  for (const auto& [key, value] : point) {
    if (!label.empty()) label += ' ';
    label += key;
    label += '=';
    // Trim trailing zeros so integral knobs read "a=2", not "a=2.000000".
    std::string number = std::to_string(value);
    while (number.find('.') != std::string::npos &&
           (number.back() == '0' || number.back() == '.')) {
      const char back = number.back();
      number.pop_back();
      if (back == '.') break;
    }
    label += number;
  }
  return label;
}

}  // namespace dam::exp

#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <exception>

namespace perfbench {

std::size_t Tracer::begin(std::string_view name) {
  const auto found = std::find(names_.begin(), names_.end(), name);
  const auto name_index = static_cast<std::uint32_t>(found - names_.begin());
  if (found == names_.end()) names_.emplace_back(name);
  Span span;
  span.name = name_index;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.op = open_.empty() ? static_cast<std::int64_t>(spans_.size())
                          : spans_[open_.front()].op;
  span.start_s = now_s();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t index) {
  // Scopes close innermost first, also while an exception unwinds them.
  if (open_.empty() || open_.back() != index) std::terminate();
  spans_[index].end_s = now_s();
  open_.pop_back();
}

double Tracer::total(std::string_view name, std::int64_t op) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (names_[spans_[i].name] == name && (op < 0 || spans_[i].op == op)) {
      sum += duration(i);
    }
  }
  return sum;
}

std::vector<double> Tracer::durations(std::string_view name,
                                      std::int64_t op) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (names_[spans_[i].name] == name && (op < 0 || spans_[i].op == op)) {
      out.push_back(duration(i));
    }
  }
  return out;
}

bool Tracer::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = duration(i);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -= duration(i);
    }
  }
  out << "index\top\tparent\tname\tstart_s\tend_s\tself_s\n";
  out.precision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << i << '\t' << span.op << '\t' << span.parent << '\t'
        << names_[span.name] << '\t' << span.start_s << '\t' << span.end_s
        << '\t' << self[i] << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench

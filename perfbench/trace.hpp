// In-memory span recorder for the traced benchmark run.
//
// The benchmark times each layer from the outside: every call it makes into
// a layer's public functions is wrapped in a span (name, start, end,
// parent). Spans stay in memory until the run ends, then write_tsv dumps
// them with their self time (duration minus the time covered by direct
// children). Spans of one engine run share the root span's index as their
// operation id.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::uint32_t name = 0;  ///< index into names()
    std::int64_t parent = -1;
    std::int64_t op = -1;    ///< index of the enclosing root span
    double start_s = 0.0;    ///< seconds since the tracer was created
    double end_s = 0.0;
  };

  /// Opens a span as a child of the innermost open span; returns its index.
  std::size_t begin(std::string_view name);

  /// Closes the innermost open span, which must be `index`.
  void end(std::size_t index);

  /// RAII wrapper around begin/end.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name)
        : tracer_(tracer), index_(tracer.begin(name)) {}
    ~Scope() { tracer_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] std::size_t index() const noexcept { return index_; }

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  [[nodiscard]] double duration(std::size_t index) const {
    return spans_[index].end_s - spans_[index].start_s;
  }

  /// Summed duration of the spans called `name` whose operation is `op`
  /// (every operation when op < 0).
  [[nodiscard]] double total(std::string_view name, std::int64_t op = -1) const;

  /// Durations of the spans called `name` whose operation is `op` (every
  /// operation when op < 0), in start order.
  [[nodiscard]] std::vector<double> durations(std::string_view name,
                                              std::int64_t op = -1) const;

  /// Number of spans so far: the index the next span will get.
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Writes one line per span: index, op, parent, name, start, end, and
  /// self time (duration minus the direct children's durations). Returns
  /// false when the file cannot be written.
  [[nodiscard]] bool write_tsv(const std::string& path) const;

 private:
  [[nodiscard]] double now_s() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench

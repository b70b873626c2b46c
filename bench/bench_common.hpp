// Shared helpers for the bench binaries that print closed forms beside
// their runs (msg_complexity, memory_complexity, reliability_tradeoff).
//
// Each prints (a) a paper-style aligned table to stdout and (b), if a path
// is given as argv[1], the same series as CSV for plotting.
//
// The paper's figures (Sec. VII) and the ablations that only format sweep
// aggregates (latency, DAG vs chain, cold bootstrap, event recovery, the
// g/a/z knobs) are registry presets run by damlab
// (`damlab --list-scenarios`), not benches.
#pragma once

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "util/csv.hpp"

namespace dam::bench {

/// Optional CSV sink: opened when the bench got an output path argument.
class CsvSink {
 public:
  CsvSink(int argc, char** argv) {
    if (argc > 1) writer_ = std::make_unique<util::CsvWriter>(argv[1]);
  }

  template <typename... Ts>
  void row(const Ts&... values) {
    if (writer_) writer_->row(values...);
  }

  void header(const std::vector<std::string>& columns) {
    if (writer_) writer_->header(columns);
  }

 private:
  std::unique_ptr<util::CsvWriter> writer_;
};

inline void print_title(const std::string& title, const std::string& note) {
  std::cout << "\n=== " << title << " ===\n";
  if (!note.empty()) std::cout << note << "\n";
  std::cout << "\n";
}

}  // namespace dam::bench

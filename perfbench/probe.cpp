#include "probe.hpp"

#include <chrono>

namespace perfbench {

namespace {

constexpr std::uint64_t kMultiplier = 6364136223846793005ull;
constexpr std::size_t kTableEntries = std::size_t{16} << 20;  // 64 MiB
constexpr long kComputeSteps = 50'000'000;
constexpr long kMemorySteps = 700'000;

/// Kernel times on a quiet host: about the fastest seen in a few hundred
/// probes on a 2-core KVM guest (Intel Xeon, 4 MiB L2 per core, 300 MiB
/// shared L3). They only set the scale: a slowdown of 1 is that quiet host.
constexpr double kComputeReferenceS = 0.10;
constexpr double kMemoryReferenceS = 0.09;

/// Keeps the kernels' results alive so the compiler cannot drop them.
volatile std::uint64_t g_sink = 0;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

double time_compute() {
  const auto started = std::chrono::steady_clock::now();
  std::uint64_t x = 1;
  for (long i = 0; i < kComputeSteps; ++i) {
    x = x * kMultiplier + 1442695040888963407ull;
    x ^= x >> 29;
  }
  g_sink = x;
  return seconds_since(started);
}

// The walk starts from a warm table: one untimed pass first reads all of
// it back into the cache, whatever the engine run before it evicted.
double time_memory(const std::vector<std::uint32_t>& table) {
  std::uint64_t sum = 0;
  for (const std::uint32_t entry : table) sum += entry;
  g_sink = sum;
  const auto started = std::chrono::steady_clock::now();
  std::uint64_t y = 7;
  for (long i = 0; i < kMemorySteps; ++i) {
    y = (y ^ table[y & (table.size() - 1)]) * kMultiplier + 1;
    y ^= y >> 31;
  }
  g_sink = y;
  return seconds_since(started);
}

}  // namespace

double SpeedProbe::slowdown() {
  if (table_.empty()) {
    table_.resize(kTableEntries);
    for (std::size_t i = 0; i < table_.size(); ++i) {
      table_[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }
  }
  return time_compute() / kComputeReferenceS *
         (time_memory(table_) / kMemoryReferenceS);
}

}  // namespace perfbench

#include "util/rng.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

namespace dam::util {

std::size_t Rng::draw_distinct_below(std::uint64_t n, std::size_t k,
                                     std::uint32_t* out) {
  assert(n <= std::uint64_t{1} << 32);
  if (k >= n) {
    for (std::uint64_t v = 0; v < n; ++v) out[v] = static_cast<std::uint32_t>(v);
    return static_cast<std::size_t>(n);
  }
  // Duplicate check: a bit filter over the low bits of the drawn values,
  // at most 1/16 full for rows up to 4096 wide. A clear bit proves the value is new (the common
  // case, no scan); a set bit is confirmed by scanning the row. When the
  // filter covers all of [0, n) it is exact and the scan is skipped.
  std::array<std::uint64_t, 1024> filter;
  const std::size_t bits = std::bit_ceil(std::max<std::uint64_t>(
      64, std::min<std::uint64_t>({n, 16 * k, 64 * filter.size()})));
  const bool exact = n <= bits;
  const auto mask = static_cast<std::uint32_t>(bits - 1);
  std::fill(filter.begin(), filter.begin() + bits / 64, 0);
  // Floyd: draw t from [0, j]; if t was already drawn, take j instead (j
  // itself cannot have been drawn yet — every earlier draw is below it).
  for (std::size_t written = 0; written < k; ++written) {
    const std::uint64_t j = n - k + written;
    auto t = static_cast<std::uint32_t>(below(j + 1));
    if ((filter[(t & mask) >> 6] >> (t & 63)) & 1) {
      const bool drawn =
          exact || std::find(out, out + written, t) != out + written;
      if (drawn) t = static_cast<std::uint32_t>(j);
    }
    filter[(t & mask) >> 6] |= std::uint64_t{1} << (t & 63);
    out[written] = t;
  }
  return k;
}

}  // namespace dam::util

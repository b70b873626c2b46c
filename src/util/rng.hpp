// Deterministic random number generation for reproducible simulations.
//
// Every stochastic component of the simulator draws from an `util::Rng`
// seeded from a single experiment seed, so that a run is a pure function of
// (parameters, seed). `Rng::fork` derives statistically independent child
// streams (one per process, per round, ...) without sharing state, which
// keeps results stable when components are added or reordered.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

namespace dam::util {

/// SplitMix64 step: used both as a seed scrambler and as the stream
/// derivation function for `Rng::fork`. Passes BigCrush as a generator on
/// its own; here it only whitens seeds.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// A deterministic pseudo-random stream with the sampling helpers the
/// protocol needs (Bernoulli trials, uniform picks, sampling without
/// replacement). Wraps xoshiro256** — small, fast, and fully owned by us so
/// results are identical across standard libraries.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0xDA0517CA57ULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Raw 64 uniform bits (xoshiro256** next()).
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Derive an independent child stream; `salt` distinguishes siblings.
  /// Forking does not perturb this stream's own future output.
  [[nodiscard]] Rng fork(std::uint64_t salt) const noexcept {
    std::uint64_t sm = state_[0] ^ rotl(state_[3], 13) ^ (salt * 0x9E3779B97F4A7C15ULL);
    Rng child(splitmix64(sm));
    return child;
  }

  /// Uniform double in [0, 1).
  double uniform01() noexcept {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

  /// True with probability `p` (p <= 0 never, p >= 1 always).
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  /// Uses Lemire's nearly-divisionless multiply-shift rejection (unbiased).
  std::uint64_t below(std::uint64_t bound) noexcept {
    std::uint64_t x = operator()();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = operator()();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniformly pick one element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> candidates) noexcept {
    return candidates[below(candidates.size())];
  }

  template <typename T>
  const T& pick(const std::vector<T>& candidates) noexcept {
    return candidates[below(candidates.size())];
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[below(i)]);
    }
  }

  /// `k` distinct elements drawn uniformly from `pool` (order random).
  /// If k >= pool.size(), returns a shuffled copy of the whole pool.
  /// Pools of at least kSparseRatio·k entries (a join drawing contacts
  /// from a whole group) take an O(k) path with the same output and the
  /// same stream use.
  template <typename T>
  [[nodiscard]] std::vector<T> sample(std::span<const T> pool, std::size_t k) {
    if (k < pool.size() && pool.size() >= kSparseRatio * k) {
      return sample_sparse(pool, k);
    }
    std::vector<T> copy(pool.begin(), pool.end());
    if (k >= copy.size()) {
      shuffle(copy);
      return copy;
    }
    // Partial Fisher–Yates: only the first k slots need settling.
    for (std::size_t i = 0; i < k; ++i) {
      using std::swap;
      swap(copy[i], copy[i + below(copy.size() - i)]);
    }
    copy.resize(k);
    return copy;
  }

  template <typename T>
  [[nodiscard]] std::vector<T> sample(const std::vector<T>& pool, std::size_t k) {
    return sample(std::span<const T>(pool.data(), pool.size()), k);
  }

  /// `sample` into a reusable buffer: `out` is cleared and refilled with the
  /// drawn elements, so steady-state callers never touch the allocator.
  /// Consumes the stream exactly like `sample(pool, k)` and leaves `pool`
  /// untouched (the partial Fisher–Yates runs on `out` itself).
  template <typename T>
  void sample_into(std::span<const T> pool, std::size_t k,
                   std::vector<T>& out) {
    out.assign(pool.begin(), pool.end());
    if (k >= out.size()) {
      shuffle(out);
      return;
    }
    for (std::size_t i = 0; i < k; ++i) {
      using std::swap;
      swap(out[i], out[i + below(out.size() - i)]);
    }
    out.resize(k);
  }

  /// Floyd-style distinct-index draw: writes min(k, n) distinct values
  /// uniform over [0, n) into `out` (draw order), with no candidate buffer
  /// — O(k) draws; a bit filter catches repeats, scanning the row only on
  /// a filter hit. The duplicate check never consumes the stream, so the
  /// output depends only on the draws. NOT stream-compatible with
  /// `sample`. Returns the number written. Precondition: n fits the uint32
  /// outputs (asserted).
  std::size_t draw_distinct_below(std::uint64_t n, std::size_t k,
                                  std::uint32_t* out);

 private:
  /// `sample` takes `sample_sparse` when the pool holds at least this
  /// many entries per draw. Measured crossover (x86-64, -O2, uint32 pools,
  /// k = 1..2048, n up to 131,072): copying costs ~0.05-0.11 ns per pool
  /// entry plus ~20 ns, the sparse path ~12-16 ns per draw plus ~40 ns,
  /// so sparse wins from n/k of about 130-500 on; at 256·k it is never
  /// more than ~40 ns slower, and a view-sized pool (tens of entries)
  /// always copies, where sparse measured 2-5x slower.
  static constexpr std::size_t kSparseRatio = 256;

  /// The partial Fisher–Yates of `sample` over a virtual copy of `pool`:
  /// step i draws j = i + below(n - i), outputs slot j's value and moves
  /// slot i's value into slot j. Slot i is never read again, so only the k
  /// written slots are recorded, in an open-addressing table kept at most
  /// half full. Precondition: k < pool.size().
  template <typename T>
  std::vector<T> sample_sparse(std::span<const T> pool, std::size_t k) {
    struct Moved {
      std::size_t slot;
      T value;
    };
    constexpr std::size_t kEmpty = static_cast<std::size_t>(-1);
    const std::size_t mask = std::bit_ceil(2 * k + 1) - 1;
    std::vector<Moved> moved(mask + 1, Moved{kEmpty, T{}});
    // Bucket of `slot`, or the empty bucket where it would go.
    const auto bucket = [&](std::size_t slot) -> Moved& {
      std::size_t b = slot & mask;
      while (moved[b].slot != kEmpty && moved[b].slot != slot) {
        b = (b + 1) & mask;
      }
      return moved[b];
    };
    std::vector<T> out;
    out.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + below(pool.size() - i);
      const Moved& at_i = bucket(i);
      const T displaced = at_i.slot == i ? at_i.value : pool[i];
      Moved& at_j = bucket(j);
      out.push_back(at_j.slot == j ? at_j.value : pool[j]);
      at_j = Moved{j, displaced};
    }
    return out;
  }

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace dam::util

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "topics/subscriptions.hpp"

namespace dam::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 90);
}

TEST(Rng, ReseedRestartsStream) {
  Rng rng(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(rng());
  rng.reseed(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(rng(), first[i]);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(9);
  constexpr int kSamples = 100000;
  int hits = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
}

TEST(Rng, BelowStaysBelow) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.below(1), 0u);
  }
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, BelowIsApproximatelyUniform) {
  Rng rng(19);
  constexpr std::uint64_t kBound = 8;
  constexpr int kSamples = 80000;
  std::map<std::uint64_t, int> histogram;
  for (int i = 0; i < kSamples; ++i) ++histogram[rng.below(kBound)];
  for (const auto& [value, count] : histogram) {
    EXPECT_NEAR(static_cast<double>(count), kSamples / kBound,
                kSamples / kBound * 0.1)
        << "value " << value;
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng(23);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t x = rng.between(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(29);
  std::vector<int> pool(100);
  for (int i = 0; i < 100; ++i) pool[i] = i;
  for (int trial = 0; trial < 50; ++trial) {
    const auto picked = rng.sample(pool, 10);
    ASSERT_EQ(picked.size(), 10u);
    std::set<int> unique(picked.begin(), picked.end());
    EXPECT_EQ(unique.size(), 10u);
  }
}

TEST(Rng, SampleMoreThanPoolReturnsWholePool) {
  Rng rng(31);
  std::vector<int> pool{1, 2, 3};
  const auto picked = rng.sample(pool, 10);
  EXPECT_EQ(picked.size(), 3u);
  std::set<int> unique(picked.begin(), picked.end());
  EXPECT_EQ(unique, (std::set<int>{1, 2, 3}));
}

TEST(Rng, SampleZeroReturnsEmpty) {
  Rng rng(37);
  std::vector<int> pool{1, 2, 3};
  EXPECT_TRUE(rng.sample(pool, 0).empty());
}

TEST(Rng, SampleFromEmptyPool) {
  Rng rng(38);
  std::vector<int> pool;
  EXPECT_TRUE(rng.sample(pool, 5).empty());
}

TEST(Rng, SampleIsUniformOverElements) {
  // Each of 10 elements should appear in a 3-subset with probability 0.3.
  Rng rng(41);
  std::vector<int> pool(10);
  for (int i = 0; i < 10; ++i) pool[i] = i;
  std::map<int, int> appearances;
  constexpr int kTrials = 30000;
  for (int trial = 0; trial < kTrials; ++trial) {
    for (int x : rng.sample(pool, 3)) ++appearances[x];
  }
  for (const auto& [value, count] : appearances) {
    EXPECT_NEAR(static_cast<double>(count) / kTrials, 0.3, 0.02)
        << "element " << value;
  }
}

TEST(Rng, SampleIntoMatchesSampleExactly) {
  // Same seed, same pool, same k: the reusable-buffer form must consume
  // the stream and produce results identically to the allocating form —
  // including the k >= pool shuffle path.
  std::vector<int> pool(50);
  for (int i = 0; i < 50; ++i) pool[i] = i * 3;
  for (const std::size_t k : {0UL, 1UL, 7UL, 49UL, 50UL, 80UL}) {
    Rng a(91);
    Rng b(91);
    std::vector<int> reused{-1, -2, -3};  // stale content must not leak
    const auto expected = a.sample(pool, k);
    b.sample_into(std::span<const int>(pool.data(), pool.size()), k, reused);
    EXPECT_EQ(reused, expected) << "k=" << k;
    EXPECT_EQ(a(), b()) << "stream diverged at k=" << k;
  }
}

/// The plain partial Fisher–Yates over a copy of the pool — the reference
/// `sample` must match on every path, output and stream position alike.
template <typename T>
std::vector<T> sample_by_copy(Rng& rng, const std::vector<T>& pool,
                              std::size_t k) {
  std::vector<T> copy = pool;
  if (k >= copy.size()) {
    rng.shuffle(copy);
    return copy;
  }
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(copy[i], copy[i + rng.below(copy.size() - i)]);
  }
  copy.resize(k);
  return copy;
}

template <typename T, typename MakeT>
void expect_sample_matches_copy(MakeT make) {
  // Pools below, at and far above the point where `sample` stops copying
  // (n >= 256·k: 256 for k = 1, 768 for k = 3, 4096 for k = 16, 12032 for
  // k = 47), k from 0 to past a view and up to the whole pool. The
  // reusable-buffer form keeps one buffer across every case, so stale
  // content and spare capacity must not leak into a draw.
  std::vector<T> reused;
  for (const std::size_t n :
       {0UL, 1UL, 47UL, 255UL, 256UL, 257UL, 767UL, 768UL, 769UL, 1000UL,
        4095UL, 4096UL, 4097UL, 12031UL, 12032UL, 12033UL, 100000UL}) {
    std::vector<T> pool;
    pool.reserve(n);
    for (std::size_t i = 0; i < n; ++i) pool.push_back(make(i));
    for (const std::size_t k :
         {0UL, 1UL, 2UL, 3UL, 16UL, 28UL, 47UL, 48UL, 64UL, 200UL, 6250UL,
          n > 0 ? n - 1 : 0, n, n + 1}) {
      for (const std::uint64_t seed : {1ULL, 7ULL, 0x57CULL}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k) +
                     " seed=" + std::to_string(seed));
        Rng a(seed);
        Rng b(seed);
        Rng c(seed);
        const std::vector<T> expected = sample_by_copy(a, pool, k);
        EXPECT_EQ(b.sample(pool, k), expected);
        c.sample_into(std::span<const T>(pool), k, reused);
        EXPECT_EQ(reused, expected);
        const auto next = a();
        EXPECT_EQ(b(), next) << "stream diverged";
        EXPECT_EQ(c(), next) << "sample_into's stream diverged";
      }
    }
  }
}

TEST(Rng, SampleMatchesTheCopyingReferenceOnEveryPath) {
  expect_sample_matches_copy<topics::ProcessId>([](std::size_t i) {
    return topics::ProcessId{static_cast<std::uint32_t>(3 * i + 1)};
  });
  expect_sample_matches_copy<std::uint32_t>(
      [](std::size_t i) { return static_cast<std::uint32_t>(i ^ 0x5A5A); });
}

/// Floyd's algorithm with the plain O(k²) linear duplicate scan — the
/// reference the production duplicate check must agree with bit for bit.
std::vector<std::uint32_t> floyd_by_scan(Rng& rng, std::uint64_t n,
                                         std::size_t k) {
  std::vector<std::uint32_t> out;
  if (k >= n) {
    for (std::uint64_t v = 0; v < n; ++v) {
      out.push_back(static_cast<std::uint32_t>(v));
    }
    return out;
  }
  for (std::uint64_t j = n - k; j < n; ++j) {
    std::uint64_t t = rng.below(j + 1);
    if (std::find(out.begin(), out.end(), t) != out.end()) t = j;
    out.push_back(static_cast<std::uint32_t>(t));
  }
  return out;
}

TEST(Rng, DrawDistinctBelowMatchesTheLinearScan) {
  // Short (k <= 16), medium (17-64), and long (> 64) draws, over ranges
  // small enough for the filter to be exact and large enough that it is
  // not, plus k >= n; n = k + 1 forces a duplicate on almost every draw.
  const struct {
    std::uint64_t n;
    std::size_t k;
  } cases[] = {
      // k <= 16
      {2, 1}, {10, 3}, {17, 16}, {1000, 9}, {1000, 16},
      // 17-64
      {18, 17}, {100, 28}, {1000, 28}, {65, 64}, {100000, 46}, {1000000, 64},
      // > 64 (the last one is wider than the filter is sized for)
      {66, 65}, {300, 200}, {5000, 100}, {100000, 1500}, {1u << 20, 5000},
      // k >= n
      {7, 7}, {7, 10}, {1, 1}, {0, 4},
  };
  for (const auto& c : cases) {
    for (std::uint64_t seed : {1ULL, 29ULL, 0xF19ULL}) {
      SCOPED_TRACE("n=" + std::to_string(c.n) + " k=" + std::to_string(c.k) +
                   " seed=" + std::to_string(seed));
      Rng a(seed);
      Rng b(seed);
      const auto expected = floyd_by_scan(a, c.n, c.k);
      std::vector<std::uint32_t> out(std::max<std::size_t>(c.k, 1));
      const std::size_t written = b.draw_distinct_below(c.n, c.k, out.data());
      out.resize(written);
      EXPECT_EQ(out, expected);
      EXPECT_EQ(a(), b()) << "stream diverged";
    }
  }
}

TEST(Rng, DrawDistinctBelowIsDistinctAndInRange) {
  Rng rng(83);
  std::vector<std::uint32_t> out(16);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t written = rng.draw_distinct_below(40, 16, out.data());
    ASSERT_EQ(written, 16u);
    std::set<std::uint32_t> unique(out.begin(), out.begin() + written);
    EXPECT_EQ(unique.size(), written);
    for (std::size_t i = 0; i < written; ++i) EXPECT_LT(out[i], 40u);
  }
  // k >= n returns all of [0, n) with no draws consumed.
  Rng before(5);
  Rng after(5);
  std::vector<std::uint32_t> all(10);
  EXPECT_EQ(after.draw_distinct_below(7, 10, all.data()), 7u);
  for (std::uint32_t v = 0; v < 7; ++v) EXPECT_EQ(all[v], v);
  EXPECT_EQ(before(), after());
}

TEST(Rng, DrawDistinctBelowIsApproximatelyUniform) {
  // Every element of [0, 10) should land in a 3-draw with p = 0.3.
  Rng rng(97);
  std::map<std::uint32_t, int> appearances;
  std::vector<std::uint32_t> out(3);
  constexpr int kTrials = 30000;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::size_t written = rng.draw_distinct_below(10, 3, out.data());
    for (std::size_t i = 0; i < written; ++i) ++appearances[out[i]];
  }
  for (const auto& [value, count] : appearances) {
    EXPECT_NEAR(static_cast<double>(count) / kTrials, 0.3, 0.02)
        << "element " << value;
  }
}

TEST(Rng, ForkIsIndependentOfParentFuture) {
  Rng parent(55);
  Rng child_before = parent.fork(1);
  // Advancing the parent must not change what an identical fork yields.
  Rng parent_copy(55);
  for (int i = 0; i < 100; ++i) parent_copy();
  // fork is computed from state at fork time; a fresh parent gives the
  // same child.
  Rng parent2(55);
  Rng child2 = parent2.fork(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child_before(), child2());
}

TEST(Rng, ForkSaltsDiffer) {
  Rng parent(60);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(71);
  std::vector<int> items{1, 2, 2, 3, 4, 5, 5, 5};
  auto shuffled = items;
  rng.shuffle(shuffled);
  auto sorted_original = items;
  std::sort(sorted_original.begin(), sorted_original.end());
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, sorted_original);
}

TEST(Rng, PickCoversAllElements) {
  Rng rng(73);
  const std::vector<int> pool{10, 20, 30};
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.pick(pool));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  std::uint64_t s1 = 0;
  std::uint64_t s2 = 0;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(splitmix64(s1), splitmix64(s2));
}

}  // namespace
}  // namespace dam::util

// The protocol kernel in isolation (core/protocol.hpp): election
// probability bounds, fanout-without-replacement, intergroup target
// selection, and the channel coin.
#include "core/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

namespace dam::core::protocol {
namespace {

TEST(ProtocolElection, FrequencyTracksPselWithinBounds) {
  // psel = g/S; with g=5 and S=100 the election rate must sit near 5%.
  TopicParams params;  // g = 5
  util::Rng rng(1);
  constexpr int kTrials = 20000;
  int elected = 0;
  for (int i = 0; i < kTrials; ++i) {
    if (elects_self(params, 100, rng)) ++elected;
  }
  const double rate = static_cast<double>(elected) / kTrials;
  EXPECT_NEAR(rate, 0.05, 0.005);
}

TEST(ProtocolElection, ClampsToCertaintyForTinyGroups) {
  // S <= g makes psel clamp to 1: every member is an intergroup forwarder.
  TopicParams params;  // g = 5
  util::Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(elects_self(params, 3, rng));
  }
}

TEST(ProtocolElection, NeverElectsWhenGIsZero) {
  TopicParams params;
  params.g = 0.0;  // psel = 0 (validate() would reject it; the kernel
                   // itself must still behave)
  util::Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(elects_self(params, 100, rng));
  }
}

TEST(ProtocolEntrySelection, FrequencyTracksPa) {
  TopicParams params;  // a = 1, z = 3 -> pa = 1/3
  util::Rng rng(4);
  constexpr int kTrials = 30000;
  int selected = 0;
  for (int i = 0; i < kTrials; ++i) {
    if (forwards_to_entry(params, rng)) ++selected;
  }
  EXPECT_NEAR(static_cast<double>(selected) / kTrials, 1.0 / 3.0, 0.01);
}

TEST(ProtocolFanout, NeverRepeatsATarget) {
  TopicParams params;  // fanout(200) = ceil(ln 200 + 5) = 11
  std::vector<std::uint32_t> table(40);
  for (std::uint32_t i = 0; i < table.size(); ++i) table[i] = i * 3;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    util::Rng rng(seed);
    const auto targets = fanout_targets(params, 200, table, rng);
    EXPECT_EQ(targets.size(), params.fanout(200));
    std::unordered_set<std::uint32_t> distinct(targets.begin(), targets.end());
    EXPECT_EQ(distinct.size(), targets.size()) << "seed " << seed;
    for (std::uint32_t target : targets) {
      EXPECT_TRUE(std::find(table.begin(), table.end(), target) !=
                  table.end());
    }
  }
}

TEST(ProtocolFanout, SmallTableReturnsEverythingOnce) {
  TopicParams params;
  const std::vector<int> table{7, 8, 9};
  util::Rng rng(5);
  // fanout(1000) = 12 > table size: every entry exactly once.
  auto targets = fanout_targets(params, 1000, table, rng);
  std::sort(targets.begin(), targets.end());
  EXPECT_EQ(targets, table);
}

TEST(ProtocolIntergroup, EmptyTableConsumesNoRandomness) {
  TopicParams params;
  util::Rng with_call(42);
  util::Rng control(42);
  const std::vector<int> empty;
  int calls = 0;
  for_each_intergroup_target(params, 100, empty, with_call,
                             [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  // The stream was untouched: both generators continue identically.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(with_call(), control());
}

TEST(ProtocolIntergroup, CertainElectionAndPaHitsEveryEntryInOrder) {
  TopicParams params;
  params.g = 1e9;  // psel = 1
  params.a = 3.0;  // pa = a/z = 1
  const std::vector<int> table{4, 5, 6};
  util::Rng rng(6);
  std::vector<int> hit;
  for_each_intergroup_target(params, 100, table, rng,
                             [&](int entry) { hit.push_back(entry); });
  EXPECT_EQ(hit, table);
}

TEST(ProtocolIntergroup, ExpectedSendsEqualG) {
  // E[sends per member] = psel · z · pa = (g/S)·z·(a/z) = g/S; across S
  // simulated members that is g sends per publication wave (Sec. VI-B).
  TopicParams params;  // g = 5
  constexpr std::size_t kGroup = 500;
  const std::vector<int> table{1, 2, 3};  // z = 3 entries
  util::Rng rng(7);
  constexpr int kWaves = 400;
  std::size_t sends = 0;
  for (int wave = 0; wave < kWaves; ++wave) {
    for (std::size_t member = 0; member < kGroup; ++member) {
      for_each_intergroup_target(params, kGroup, table, rng,
                                 [&](int) { ++sends; });
    }
  }
  EXPECT_NEAR(static_cast<double>(sends) / kWaves, 5.0, 0.4);
}

TEST(ProtocolChannel, CoinTracksPsucc) {
  util::Rng rng(8);
  constexpr int kTrials = 20000;
  int delivered = 0;
  for (int i = 0; i < kTrials; ++i) {
    if (channel_delivers(0.85, rng)) ++delivered;
  }
  EXPECT_NEAR(static_cast<double>(delivered) / kTrials, 0.85, 0.01);
  // Degenerate probabilities never consult the stream.
  util::Rng a(9);
  util::Rng b(9);
  EXPECT_TRUE(channel_delivers(1.0, a));
  EXPECT_FALSE(channel_delivers(0.0, a));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a(), b());
}

}  // namespace
}  // namespace dam::core::protocol

#include "membership/view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

namespace dam::membership {
namespace {

TEST(PartialView, InsertBasics) {
  util::Rng rng(1);
  PartialView view(ProcessId{0}, 3);
  EXPECT_TRUE(view.empty());
  EXPECT_TRUE(view.insert(ProcessId{1}, rng));
  EXPECT_TRUE(view.insert(ProcessId{2}, rng));
  EXPECT_EQ(view.size(), 2u);
  EXPECT_TRUE(view.contains(ProcessId{1}));
  EXPECT_FALSE(view.contains(ProcessId{9}));
}

TEST(PartialView, RejectsOwnerAndDuplicates) {
  util::Rng rng(2);
  PartialView view(ProcessId{0}, 3);
  EXPECT_FALSE(view.insert(ProcessId{0}, rng));
  EXPECT_TRUE(view.insert(ProcessId{1}, rng));
  EXPECT_FALSE(view.insert(ProcessId{1}, rng));
  EXPECT_EQ(view.size(), 1u);
}

TEST(PartialView, FullViewEvictsRandomly) {
  util::Rng rng(3);
  PartialView view(ProcessId{0}, 2);
  view.insert(ProcessId{1}, rng);
  view.insert(ProcessId{2}, rng);
  EXPECT_TRUE(view.full());
  EXPECT_TRUE(view.insert(ProcessId{3}, rng));
  EXPECT_EQ(view.size(), 2u);
  EXPECT_TRUE(view.contains(ProcessId{3}));
}

TEST(PartialView, EvictionIsUniformish) {
  // With capacity 2 holding {1,2}, inserting 3 evicts 1 or 2 each about
  // half the time.
  std::map<bool, int> kept1;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    util::Rng rng(seed);
    PartialView view(ProcessId{0}, 2);
    view.insert(ProcessId{1}, rng);
    view.insert(ProcessId{2}, rng);
    view.insert(ProcessId{3}, rng);
    ++kept1[view.contains(ProcessId{1})];
  }
  EXPECT_NEAR(kept1[true], 1000, 120);
}

TEST(PartialView, ZeroCapacityNeverStores) {
  util::Rng rng(5);
  PartialView view(ProcessId{0}, 0);
  EXPECT_FALSE(view.insert(ProcessId{1}, rng));
  EXPECT_TRUE(view.empty());
}

TEST(PartialView, EraseAndRetain) {
  util::Rng rng(6);
  PartialView view(ProcessId{0}, 5);
  for (std::uint32_t i = 1; i <= 5; ++i) view.insert(ProcessId{i}, rng);
  EXPECT_TRUE(view.erase(ProcessId{3}));
  EXPECT_FALSE(view.erase(ProcessId{3}));
  EXPECT_EQ(view.size(), 4u);
  view.retain([](ProcessId p) { return p.value % 2 == 0; });
  EXPECT_EQ(view.size(), 2u);
  EXPECT_TRUE(view.contains(ProcessId{2}));
  EXPECT_TRUE(view.contains(ProcessId{4}));
}

TEST(PartialView, SampleReturnsDistinctEntries) {
  util::Rng rng(7);
  PartialView view(ProcessId{0}, 10);
  for (std::uint32_t i = 1; i <= 10; ++i) view.insert(ProcessId{i}, rng);
  const auto picked = view.sample(4, rng);
  ASSERT_EQ(picked.size(), 4u);
  for (std::size_t i = 0; i < picked.size(); ++i) {
    for (std::size_t j = i + 1; j < picked.size(); ++j) {
      EXPECT_NE(picked[i], picked[j]);
    }
    EXPECT_TRUE(view.contains(picked[i]));
  }
}

TEST(PartialView, SampleMoreThanSizeReturnsAll) {
  util::Rng rng(8);
  PartialView view(ProcessId{0}, 5);
  view.insert(ProcessId{1}, rng);
  view.insert(ProcessId{2}, rng);
  EXPECT_EQ(view.sample(10, rng).size(), 2u);
}

TEST(PartialView, PickReturnsMember) {
  util::Rng rng(9);
  PartialView view(ProcessId{0}, 5);
  view.insert(ProcessId{7}, rng);
  EXPECT_EQ(view.pick(rng), ProcessId{7});
  util::Rng untouched(9);  // neither the insert nor the pick drew
  EXPECT_EQ(rng(), untouched());
}

TEST(PartialView, ShrinkCapacityEvicts) {
  util::Rng rng(10);
  PartialView view(ProcessId{0}, 8);
  for (std::uint32_t i = 1; i <= 8; ++i) view.insert(ProcessId{i}, rng);
  view.set_capacity(3, rng);
  EXPECT_EQ(view.capacity(), 3u);
  EXPECT_EQ(view.size(), 3u);
}

TEST(PartialView, GrowCapacityKeepsEntries) {
  util::Rng rng(11);
  PartialView view(ProcessId{0}, 2);
  view.insert(ProcessId{1}, rng);
  view.insert(ProcessId{2}, rng);
  view.set_capacity(5, rng);
  EXPECT_EQ(view.size(), 2u);
  EXPECT_TRUE(view.insert(ProcessId{3}, rng));
  EXPECT_EQ(view.size(), 3u);
}

TEST(PartialView, ClearEmpties) {
  util::Rng rng(12);
  PartialView view(ProcessId{0}, 4);
  view.insert(ProcessId{1}, rng);
  view.clear();
  EXPECT_TRUE(view.empty());
}

TEST(PartialView, InsertDistinctMatchesInsertingOneByOne) {
  // The join path skips the duplicate scans; for distinct peers it must
  // give the same entries in the same order with the same eviction draws,
  // also when the peers overflow the capacity and when one is the owner.
  std::vector<ProcessId> peers;
  for (std::uint32_t i = 0; i < 12; ++i) peers.push_back(ProcessId{i * 3});
  util::Rng rng_one(22);
  util::Rng rng_all(22);
  PartialView one(ProcessId{9}, 5);
  PartialView all(ProcessId{9}, 5);
  one.insert(ProcessId{100}, rng_one);
  all.insert(ProcessId{100}, rng_all);
  for (ProcessId p : peers) one.insert(p, rng_one);
  all.insert_distinct(peers, rng_all);
  const auto a = one.entries();
  const auto b = all.entries();
  ASSERT_EQ(a.size(), 5u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  EXPECT_FALSE(all.contains(ProcessId{9}));
  EXPECT_EQ(rng_one.below(1000), rng_all.below(1000));
}

/// The view's contract spelled out naively: std::find scans, the same
/// draws at the same points. PartialView must match it entry for entry
/// and draw for draw.
struct ReferenceView {
  ProcessId owner;
  std::size_t capacity;
  std::vector<ProcessId> entries;

  bool contains(ProcessId p) const {
    return std::find(entries.begin(), entries.end(), p) != entries.end();
  }
  bool insert(ProcessId p, util::Rng& rng) {
    if (p == owner || capacity == 0 || contains(p)) return false;
    if (entries.size() >= capacity) {
      entries[rng.below(entries.size())] = p;
    } else {
      entries.push_back(p);
    }
    return true;
  }
  bool erase(ProcessId p) {
    const auto it = std::find(entries.begin(), entries.end(), p);
    if (it == entries.end()) return false;
    entries.erase(it);
    return true;
  }
  void set_capacity(std::size_t c, util::Rng& rng) {
    capacity = c;
    while (entries.size() > capacity) {
      entries[rng.below(entries.size())] = entries.back();
      entries.pop_back();
    }
  }
};

TEST(PartialView, MatchesReferenceModelOverRandomOperations) {
  // Every capacity 0-130, so rows of every length modulo the vector
  // width; ids drawn from about twice the capacity, so inserts hit
  // duplicates, the owner and full views alike.
  constexpr std::size_t kMaxCapacity = 130;
  constexpr int kSteps = 250;
  for (std::size_t capacity = 0; capacity <= kMaxCapacity; ++capacity) {
    SCOPED_TRACE(capacity);
    util::Rng ops(1000 + capacity);
    util::Rng rng_view(capacity);
    util::Rng rng_model(capacity);
    const ProcessId owner{3};
    PartialView view(owner, capacity);
    ReferenceView model{owner, capacity, {}};
    const std::uint64_t id_range = 2 * capacity + 5;
    for (int step = 0; step < kSteps; ++step) {
      const ProcessId p{static_cast<std::uint32_t>(ops.below(id_range))};
      const std::uint64_t op = ops.below(20);
      if (op < 12) {
        ASSERT_EQ(view.insert(p, rng_view), model.insert(p, rng_model));
      } else if (op < 15) {
        ASSERT_EQ(view.erase(p), model.erase(p));
      } else if (op < 17) {
        ASSERT_EQ(view.contains(p), model.contains(p));
      } else if (op < 18) {
        const std::size_t c = ops.below(kMaxCapacity + 1);
        view.set_capacity(c, rng_view);
        model.set_capacity(c, rng_model);
      } else {
        // A join-time sample: distinct peers, none in the view yet.
        std::vector<ProcessId> fresh;
        for (std::uint32_t id = 0; id < id_range; ++id) {
          if (!model.contains(ProcessId{id})) fresh.push_back(ProcessId{id});
        }
        ops.shuffle(fresh);
        fresh.resize(std::min<std::size_t>(fresh.size(), ops.below(12)));
        view.insert_distinct(fresh, rng_view);
        for (ProcessId peer : fresh) model.insert(peer, rng_model);
      }
      const auto got = view.entries();
      ASSERT_EQ(std::vector<ProcessId>(got.begin(), got.end()), model.entries)
          << "step " << step << " op " << op;
      ASSERT_EQ(view.capacity(), model.capacity);
      util::Rng next_view = rng_view;
      util::Rng next_model = rng_model;
      ASSERT_EQ(next_view(), next_model()) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace dam::membership

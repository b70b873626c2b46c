#include "sim/failure.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "util/parallel.hpp"

namespace dam::sim {
namespace {

std::vector<ProcessId> make_processes(std::uint32_t n) {
  std::vector<ProcessId> processes;
  for (std::uint32_t i = 0; i < n; ++i) processes.push_back(ProcessId{i});
  return processes;
}

TEST(NoFailures, EverybodyAliveAndDeliverable) {
  NoFailures model;
  util::Rng rng(1);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(model.alive(ProcessId{i}, 0));
    EXPECT_TRUE(model.deliverable(ProcessId{0}, ProcessId{i}, 5, rng));
  }
}

TEST(StillbornFailures, ExplicitSet) {
  StillbornFailures model({ProcessId{2}, ProcessId{5}});
  EXPECT_TRUE(model.alive(ProcessId{0}, 0));
  EXPECT_FALSE(model.alive(ProcessId{2}, 0));
  EXPECT_FALSE(model.alive(ProcessId{5}, 100));
  EXPECT_EQ(model.failed_count(), 2u);
}

TEST(StillbornFailures, BitsetGrowsAndCountsEachProcessOnce) {
  StillbornFailures model;
  model.fail(ProcessId{1000});
  model.fail(ProcessId{1000});
  model.fail(ProcessId{63});
  model.fail(ProcessId{64});
  EXPECT_EQ(model.failed_count(), 3u);
  EXPECT_FALSE(model.alive(ProcessId{1000}, 0));
  EXPECT_FALSE(model.alive(ProcessId{63}, 0));
  EXPECT_FALSE(model.alive(ProcessId{64}, 0));
  EXPECT_TRUE(model.alive(ProcessId{999}, 0));
  EXPECT_TRUE(model.alive(ProcessId{65}, 0));
  EXPECT_TRUE(model.alive(ProcessId{5000}, 0));  // beyond every failed id
}

TEST(StillbornFailures, DeliverableFollowsTargetAliveness) {
  StillbornFailures model({ProcessId{1}});
  util::Rng rng(1);
  EXPECT_FALSE(model.deliverable(ProcessId{0}, ProcessId{1}, 0, rng));
  EXPECT_TRUE(model.deliverable(ProcessId{1}, ProcessId{0}, 0, rng));
}

TEST(StillbornFailures, SampleMatchesFraction) {
  util::Rng rng(99);
  const auto processes = make_processes(10000);
  const auto model = StillbornFailures::sample(processes, 0.7, rng);
  EXPECT_NEAR(static_cast<double>(model.failed_count()), 3000.0, 150.0);
}

TEST(StillbornFailures, SampleExtremes) {
  util::Rng rng(7);
  const auto processes = make_processes(100);
  EXPECT_EQ(StillbornFailures::sample(processes, 1.0, rng).failed_count(), 0u);
  EXPECT_EQ(StillbornFailures::sample(processes, 0.0, rng).failed_count(),
            100u);
}

TEST(DynamicPerceptionFailures, AlwaysAliveButDropsDeliveries) {
  DynamicPerceptionFailures model(0.4);
  util::Rng rng(3);
  int delivered = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    EXPECT_TRUE(model.alive(ProcessId{1}, i));
    if (model.deliverable(ProcessId{0}, ProcessId{1}, 0, rng)) ++delivered;
  }
  EXPECT_NEAR(static_cast<double>(delivered) / kTrials, 0.6, 0.02);
}

TEST(DynamicPerceptionFailures, ZeroFailureDeliversAll) {
  DynamicPerceptionFailures model(0.0);
  util::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(model.deliverable(ProcessId{0}, ProcessId{1}, 0, rng));
  }
}

TEST(ChurnFailures, IntervalSemantics) {
  ChurnFailures model(3);
  model.add_downtime(ProcessId{1}, {5, 10});
  EXPECT_TRUE(model.alive(ProcessId{1}, 4));
  EXPECT_FALSE(model.alive(ProcessId{1}, 5));   // inclusive start
  EXPECT_FALSE(model.alive(ProcessId{1}, 9));
  EXPECT_TRUE(model.alive(ProcessId{1}, 10));   // exclusive end
  EXPECT_TRUE(model.alive(ProcessId{0}, 7));    // other processes unaffected
}

TEST(ChurnFailures, MultipleIntervals) {
  ChurnFailures model(1);
  model.add_downtime(ProcessId{0}, {20, 30});
  model.add_downtime(ProcessId{0}, {5, 8});
  EXPECT_TRUE(model.alive(ProcessId{0}, 0));
  EXPECT_FALSE(model.alive(ProcessId{0}, 6));
  EXPECT_TRUE(model.alive(ProcessId{0}, 15));
  EXPECT_FALSE(model.alive(ProcessId{0}, 25));
  EXPECT_TRUE(model.alive(ProcessId{0}, 30));
}

TEST(ChurnFailures, RejectsEmptyInterval) {
  ChurnFailures model(1);
  EXPECT_THROW(model.add_downtime(ProcessId{0}, {5, 5}),
               std::invalid_argument);
  EXPECT_THROW(model.add_downtime(ProcessId{0}, {6, 5}),
               std::invalid_argument);
}

TEST(ChurnFailures, SampleProducesOutages) {
  util::Rng rng(11);
  const auto model = ChurnFailures::sample(50, 100, 2, 10, rng);
  // Every process should be down at some round.
  int processes_with_downtime = 0;
  for (std::uint32_t p = 0; p < 50; ++p) {
    for (Round r = 0; r < 120; ++r) {
      if (!model.alive(ProcessId{p}, r)) {
        ++processes_with_downtime;
        break;
      }
    }
  }
  EXPECT_EQ(processes_with_downtime, 50);
}

TEST(ChurnFailures, SampleZeroHorizonIsHarmless) {
  util::Rng rng(13);
  const auto model = ChurnFailures::sample(10, 0, 3, 5, rng);
  for (std::uint32_t p = 0; p < 10; ++p) {
    EXPECT_TRUE(model.alive(ProcessId{p}, 0));
  }
}

TEST(ChurnFailures, OutOfRangeProcessThrows) {
  ChurnFailures model(3);
  model.add_downtime(ProcessId{1}, {2, 4});
  EXPECT_THROW((void)model.alive(ProcessId{3}, 0), std::out_of_range);
  EXPECT_TRUE(model.alive(ProcessId{2}, 3));  // the cursor is now at 3
  EXPECT_THROW((void)model.alive(ProcessId{3}, 3), std::out_of_range);
  EXPECT_THROW((void)model.alive(ProcessId{3}, 1), std::out_of_range);
  EXPECT_THROW(model.add_downtime(ProcessId{3}, {0, 1}), std::out_of_range);
}

/// The reference semantics: a process is down at `round` iff one of its
/// intervals holds it, whatever was asked before.
class ScheduleReference {
 public:
  explicit ScheduleReference(std::size_t processes) : downtime_(processes) {}

  void add(ChurnFailures& model, std::uint32_t process,
           ChurnFailures::Interval interval) {
    model.add_downtime(ProcessId{process}, interval);
    downtime_[process].push_back(interval);
  }

  [[nodiscard]] bool alive(std::uint32_t process, Round round) const {
    for (const ChurnFailures::Interval& interval : downtime_[process]) {
      if (interval.down <= round && round < interval.up) return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t size() const { return downtime_.size(); }

 private:
  std::vector<std::vector<ChurnFailures::Interval>> downtime_;
};

/// Random outages, overlapping and adjacent ones included; some never end.
void add_random_outages(ChurnFailures& model, ScheduleReference& reference,
                        util::Rng& rng, std::size_t count) {
  constexpr Round kForever = Round{1} << 30;
  for (std::size_t i = 0; i < count; ++i) {
    const auto process =
        static_cast<std::uint32_t>(rng.below(reference.size()));
    const Round down = rng.below(40);
    const Round up = rng.bernoulli(0.1) ? kForever : down + 1 + rng.below(8);
    reference.add(model, process, {down, up});
  }
}

void expect_matches(const ChurnFailures& model,
                    const ScheduleReference& reference, std::uint32_t process,
                    Round round) {
  EXPECT_EQ(model.alive(ProcessId{process}, round),
            reference.alive(process, round))
      << "process " << process << " round " << round;
}

TEST(ChurnFailures, CursorMatchesIntervalScanOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    util::Rng rng(seed);
    const std::size_t processes = 1 + rng.below(150);
    ChurnFailures model(processes);
    ScheduleReference reference(processes);
    add_random_outages(model, reference, rng, rng.below(3 * processes));
    // Ascending, repeated and earlier rounds, interleaved.
    Round latest = 0;
    for (int query = 0; query < 600; ++query) {
      Round round = latest;
      const std::uint64_t kind = rng.below(10);
      if (kind < 5) {
        round = latest += rng.below(3);  // ascending (or repeated)
      } else if (kind < 8) {
        round = rng.below(latest + 1);  // earlier (or the cursor round)
      } else {
        round = latest + 1 + rng.below(10);  // a later one, then back
      }
      const auto process = static_cast<std::uint32_t>(rng.below(processes));
      expect_matches(model, reference, process, round);
    }
    // A full sweep of every round, every process.
    for (Round round = 0; round < 60; ++round) {
      for (std::uint32_t p = 0; p < processes; ++p) {
        expect_matches(model, reference, p, round);
      }
    }
  }
}

TEST(ChurnFailures, AddDowntimeAfterQueriesResetsTheCursor) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    util::Rng rng(100 + seed);
    constexpr std::size_t kProcesses = 64;
    ChurnFailures model(kProcesses);
    ScheduleReference reference(kProcesses);
    add_random_outages(model, reference, rng, 40);
    for (int batch = 0; batch < 5; ++batch) {
      const Round round = rng.below(50);
      for (std::uint32_t p = 0; p < kProcesses; ++p) {
        expect_matches(model, reference, p, round);
      }
      // New outages around the cursor: before, at and after it.
      add_random_outages(model, reference, rng, 10);
      for (std::uint32_t p = 0; p < kProcesses; ++p) {
        expect_matches(model, reference, p, round);
        expect_matches(model, reference, p, round + 1);
        expect_matches(model, reference, p, round / 2);
      }
    }
  }
  ChurnFailures model(2);
  EXPECT_TRUE(model.alive(ProcessId{1}, 10));
  model.add_downtime(ProcessId{1}, {5, 15});
  EXPECT_FALSE(model.alive(ProcessId{1}, 10));
  EXPECT_TRUE(model.alive(ProcessId{1}, 4));
  EXPECT_TRUE(model.alive(ProcessId{1}, 15));
}

TEST(ChurnFailures, AdvanceToAnswersLikeTheScan) {
  util::Rng rng(77);
  constexpr std::size_t kProcesses = 120;
  ChurnFailures model(kProcesses);
  ScheduleReference reference(kProcesses);
  add_random_outages(model, reference, rng, 300);
  for (Round round = 0; round < 60; round += 1 + rng.below(3)) {
    model.advance_to(round);
    for (std::uint32_t p = 0; p < kProcesses; ++p) {
      expect_matches(model, reference, p, round);
    }
    model.advance_to(round / 2);  // never moves the cursor back
    for (std::uint32_t p = 0; p < kProcesses; ++p) {
      expect_matches(model, reference, p, round);
      expect_matches(model, reference, p, round / 2);
    }
  }
}

TEST(ChurnFailures, ConcurrentReadersAfterAdvanceTo) {
  // The frozen engine's contract: advance_to(round), then any number of
  // workers may ask about `round` or earlier ones; they only read.
  util::Rng rng(5);
  constexpr std::size_t kProcesses = 4096;
  constexpr std::size_t kTasks = 8;
  ChurnFailures model(kProcesses);
  ScheduleReference reference(kProcesses);
  add_random_outages(model, reference, rng, 3000);
  for (Round round = 0; round < 50; round += 7) {
    model.advance_to(round);
    std::vector<char> agree(kTasks, 1);
    util::run_parallel(kTasks, 4, [&](std::size_t task) {
      for (auto p = static_cast<std::uint32_t>(task); p < kProcesses;
           p += kTasks) {
        for (const Round asked : {round, round / 2}) {
          if (model.alive(ProcessId{p}, asked) != reference.alive(p, asked)) {
            agree[task] = 0;
          }
        }
      }
    });
    for (std::size_t task = 0; task < kTasks; ++task) {
      EXPECT_TRUE(agree[task]) << "round " << round << " task " << task;
    }
  }
}

}  // namespace
}  // namespace dam::sim

// Microbenchmarks (google-benchmark) for the library's hot paths: the RNG,
// sampling, the message codec, view maintenance, and one full simulated
// publication at paper scale.
#include <benchmark/benchmark.h>

#include "core/frozen_sim.hpp"
#include "membership/view.hpp"
#include "net/message.hpp"
#include "sim/scenario.hpp"
#include "topics/hierarchy.hpp"
#include "util/rng.hpp"

namespace {

using namespace dam;

void BM_RngBelow(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.below(1000));
  }
}
BENCHMARK(BM_RngBelow);

void BM_RngSample(benchmark::State& state) {
  util::Rng rng(1);
  std::vector<std::uint32_t> pool(static_cast<std::size_t>(state.range(0)));
  for (std::uint32_t i = 0; i < pool.size(); ++i) pool[i] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.sample(pool, 12));
  }
}
BENCHMARK(BM_RngSample)->Arg(100)->Arg(1000)->Arg(10000);

void BM_MessageEncodeDecode(benchmark::State& state) {
  net::Message msg;
  msg.kind = net::MsgKind::kMembership;
  msg.from = topics::ProcessId{1};
  msg.to = topics::ProcessId{2};
  msg.answer_topic = topics::TopicId{3};
  for (std::uint32_t i = 0; i < 16; ++i) {
    msg.processes.push_back(topics::ProcessId{i});
  }
  msg.piggyback_topic = topics::TopicId{2};
  msg.piggyback_super_table = {topics::ProcessId{7}, topics::ProcessId{8},
                               topics::ProcessId{9}};
  for (auto _ : state) {
    const auto bytes = net::encode(msg);
    benchmark::DoNotOptimize(net::decode(bytes));
  }
}
BENCHMARK(BM_MessageEncodeDecode);

void BM_PartialViewInsert(benchmark::State& state) {
  util::Rng rng(1);
  membership::PartialView view(topics::ProcessId{0}, 28);
  std::uint32_t next = 1;
  for (auto _ : state) {
    view.insert(topics::ProcessId{next++}, rng);
  }
}
BENCHMARK(BM_PartialViewInsert);

void BM_HierarchyIncludes(benchmark::State& state) {
  topics::TopicHierarchy hierarchy;
  const auto deep = hierarchy.add(".a.b.c.d.e.f");
  const auto a = *hierarchy.find(".a");
  for (auto _ : state) {
    benchmark::DoNotOptimize(hierarchy.includes(a, deep));
  }
}
BENCHMARK(BM_HierarchyIncludes);

void BM_FrozenPublicationPaperScale(benchmark::State& state) {
  const sim::Scenario chain =
      sim::make_linear_scenario("paper", "", {10, 100, 1000});
  const topics::TopicDag dag = chain.build_dag();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    core::FrozenSimConfig config = chain.config_for(dag, 1.0, 0);
    config.seed = seed++;
    benchmark::DoNotOptimize(core::run_frozen_simulation(config));
  }
}
BENCHMARK(BM_FrozenPublicationPaperScale)->Unit(benchmark::kMillisecond);

}  // namespace

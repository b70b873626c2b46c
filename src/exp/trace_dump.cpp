#include "exp/trace_dump.hpp"

#include <fstream>
#include <ostream>

#include "sim/trace.hpp"
#include "workload/driver.hpp"

namespace dam::exp {
namespace {

const char* frozen_engine(sim::EngineKind engine) {
  switch (engine) {
    case sim::EngineKind::kBroadcast:
      return "broadcast baseline";
    case sim::EngineKind::kMulticast:
      return "multicast baseline";
    case sim::EngineKind::kHierarchical:
      return "hierarchical baseline";
    default:
      return "engine";
  }
}

}  // namespace

int dump_trace(const sim::Scenario& scenario, const std::string& path,
               std::ostream& out, std::ostream& err) {
  if (scenario.engine != sim::EngineKind::kDynamic) {
    err << "damlab: --trace needs a dynamic-engine scenario ('"
        << scenario.name << "' runs ";
    if (sim::is_stream_engine(scenario.engine)) {
      err << "a steady rival engine, which has no DamSystem to trace";
    } else {
      err << "the frozen " << frozen_engine(scenario.engine)
          << ", which has no per-message trace";
    }
    err << ")\n";
    return 2;
  }
  if (scenario.alive_sweep.empty()) {
    err << "damlab: scenario has no alive fraction to trace\n";
    return 2;
  }
  const topics::TopicDag dag = scenario.build_dag();
  sim::TraceRecorder recorder(1 << 16);
  const workload::DynamicRunResult result = workload::run_dynamic_simulation(
      scenario, dag, scenario.alive_sweep.front(), 0, &recorder);
  std::ofstream file(path);
  if (!file) {
    err << "damlab: cannot open trace file '" << path << "'\n";
    return 2;
  }
  recorder.to_csv(file);
  out << "traced run 0 (alive=" << scenario.alive_sweep.front()
      << "): " << recorder.total_recorded() << " events recorded, last "
      << recorder.entries().size() << " buffered -> " << path << " ("
      << result.rounds << " rounds, " << result.publications
      << " publications)\n";
  return 0;
}

}  // namespace dam::exp

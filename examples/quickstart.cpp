// Quickstart: build a dynamic dataflow, deploy it with the global
// heuristic on a simulated elastic cloud, and inspect the QoS/cost result.
//
// This walks the complete public API surface in ~60 lines:
//   dataflow construction -> experiment configuration -> engine run ->
//   metrics inspection.
#include <iostream>

#include "dds/dds.hpp"

int main() {
  using namespace dds;

  // 1. Describe the application as a dynamic dataflow. Each PE may carry
  //    several alternates: {name, value f(p), cost core-sec/msg,
  //    selectivity}. Here the "analyze" stage offers an accurate/expensive
  //    and a fast/cheaper implementation.
  DataflowBuilder builder("quickstart");
  const PeId ingest = builder.addPe("ingest", {{"parse", 1.0, 0.05, 1.0}});
  const PeId analyze =
      builder.addPe("analyze", {{"deep-model", 1.0, 0.25, 1.0},
                                {"sketch", 0.75, 0.10, 1.0}});
  const PeId publish = builder.addPe("publish", {{"emit", 1.0, 0.05, 1.0}});
  builder.addEdge(ingest, analyze);
  builder.addEdge(analyze, publish);
  const Dataflow df = std::move(builder).build();

  // 2. Configure the experiment: a 1-hour run at a mean 10 msg/s with a
  //    periodic-wave input and realistic cloud performance variability.
  ExperimentConfig cfg;
  cfg.horizon_s = 1.0 * kSecondsPerHour;
  cfg.workload.mean_rate = 10.0;
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.workload.infra_variability = true;
  cfg.omega_target = 0.7;  // keep >= 70% relative throughput on average

  // 3. Run the global adaptive heuristic (alternate switching + elastic
  //    VM scaling) and a static baseline for contrast.
  SimulationEngine engine(df, cfg);
  const ExperimentResult adaptive = engine.run(parseScheduler("global"));
  const ExperimentResult fixed = engine.run(parseScheduler("global-static"));

  // 4. Inspect the results.
  auto report = [](const ExperimentResult& r) {
    std::cout << "  scheduler        : " << r.scheduler_name << '\n'
              << "  avg throughput   : " << r.average_omega
              << (r.constraint_met ? "  (constraint met)"
                                   : "  (CONSTRAINT MISSED)")
              << '\n'
              << "  avg value        : " << r.average_gamma << '\n'
              << "  total cost       : $" << r.total_cost << '\n'
              << "  profit (theta)   : " << r.theta << '\n'
              << "  peak VMs / cores : " << r.peak_vms << " / "
              << r.peak_cores << "\n\n";
  };
  std::cout << "== adaptive (global heuristic) ==\n";
  report(adaptive);
  std::cout << "== static (deploy once) ==\n";
  report(fixed);
  return 0;
}

// Video-analytics pipeline — the classic dynamic-dataflow motivation: a
// continuous stream of frames flows through decode, detect, classify and
// index stages. Detection and classification each offer alternates with
// different F1 scores (the paper's example of a user-defined value
// function) and per-frame compute costs. We compare all seven scheduling
// policies on a bursty feed over a variable cloud and print a ranked
// scoreboard: constraint satisfaction first, then profit Theta — exactly
// the §8.2 comparison rule.
#include <algorithm>
#include <iostream>
#include <vector>

#include "dds/dds.hpp"

int main() {
  using namespace dds;

  // Frame pipeline. Values are F1 scores of real-ish model tiers; costs
  // are core-seconds per frame on a standard core; selectivity < 1 models
  // stages that drop uninteresting frames.
  DataflowBuilder b("video-analytics");
  const PeId decode = b.addPe("decode", {{"ffdecode", 1.0, 0.04, 1.0}});
  const PeId detect =
      b.addPe("detect", {{"dnn-detector", 0.92, 0.30, 0.6},
                         {"cascade-detector", 0.78, 0.12, 0.7},
                         {"motion-gate", 0.55, 0.05, 0.8}});
  const PeId classify =
      b.addPe("classify", {{"resnet-deep", 0.95, 0.40, 1.0},
                           {"mobilenet", 0.80, 0.15, 1.0}});
  const PeId annotate = b.addPe("annotate", {{"overlay", 1.0, 0.06, 1.0}});
  const PeId index = b.addPe("index", {{"indexer", 1.0, 0.05, 1.0}});
  b.addEdge(decode, detect);
  b.addEdge(detect, classify);
  b.addEdge(detect, annotate);   // annotation path runs in parallel
  b.addEdge(classify, index);
  b.addEdge(annotate, index);
  const Dataflow df = std::move(b).build();

  ExperimentConfig cfg;
  cfg.horizon_s = 3.0 * kSecondsPerHour;
  cfg.workload.mean_rate = 25.0;  // frames/s after keyframe sampling
  cfg.workload.profile = ProfileKind::RandomWalk;  // bursty viewership
  cfg.workload.infra_variability = true;
  cfg.omega_target = 0.7;
  const SimulationEngine engine(df, cfg);

  const std::vector<SchedulerSpec> kinds = {
      parseScheduler("global"),      parseScheduler("local"),
      parseScheduler("global-nodyn"), parseScheduler("local-nodyn"),
      parseScheduler("global-static"),        parseScheduler("local-static"),
  };
  std::vector<ExperimentResult> results;
  results.reserve(kinds.size());
  for (const auto kind : kinds) results.push_back(engine.run(kind));

  // §8.2's two-level comparison: constraint satisfaction, then Theta.
  std::sort(results.begin(), results.end(),
            [](const ExperimentResult& x, const ExperimentResult& y) {
              if (x.constraint_met != y.constraint_met) {
                return x.constraint_met;
              }
              return x.theta > y.theta;
            });

  TextTable table({"#", "policy", "omega", "met", "value", "cost$",
                   "theta", "peak-VMs"});
  int rank = 1;
  for (const auto& r : results) {
    table.addRow({std::to_string(rank++), r.scheduler_name,
                  TextTable::num(r.average_omega),
                  r.constraint_met ? "yes" : "NO",
                  TextTable::num(r.average_gamma),
                  TextTable::num(r.total_cost, 2), TextTable::num(r.theta),
                  std::to_string(r.peak_vms)});
  }
  std::cout << "Video analytics at " << cfg.workload.mean_rate
            << " frames/s (bursty), 3 h on a variable cloud\n"
            << "(ranked: constraint first, then profit Theta)\n\n"
            << table.render() << '\n'
            << "Reading: the adaptive policies hold the 0.7 throughput "
               "floor by switching\nbetween detector/classifier tiers and "
               "scaling VMs; the no-dynamism variants\npay for the deep "
               "models at all times; the statics cannot react at all.\n";
  return 0;
}

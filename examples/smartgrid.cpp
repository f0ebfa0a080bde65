// Smart-grid stream analytics — the USC campus-microgrid scenario the
// authors' group built continuous dataflows for: smart meters emit
// readings that are parsed, cleaned, aggregated and fed to a demand
// forecaster, with a parallel outage-detection path. Meter traffic is
// strongly periodic (day/night), which is exactly the "periodic wave"
// profile of §8.1.
//
// This example focuses on the elasticity timeline: it prints, for each
// 10-minute slice of a 6-hour run, the input rate, instantaneous Omega,
// active VM count and cumulative cost, showing VMs following the wave.
#include <iostream>

#include "dds/dds.hpp"

int main() {
  using namespace dds;

  DataflowBuilder b("smartgrid");
  const PeId ingest = b.addPe("meter-ingest", {{"parse", 1.0, 0.03, 1.0}});
  const PeId clean =
      b.addPe("clean", {{"full-validate", 1.0, 0.12, 0.95},
                        {"spot-check", 0.7, 0.05, 0.98}});
  const PeId aggregate =
      b.addPe("aggregate", {{"per-building", 1.0, 0.08, 0.2}});
  const PeId forecast =
      b.addPe("forecast", {{"arima-ensemble", 0.9, 0.6, 1.0},
                           {"regression-tree", 0.75, 0.2, 1.0}});
  const PeId outage =
      b.addPe("outage-detect", {{"cusum", 1.0, 0.04, 0.05}});
  const PeId alerts = b.addPe("alerts", {{"notify", 1.0, 0.02, 1.0}});
  b.addEdge(ingest, clean);
  b.addEdge(clean, aggregate);
  b.addEdge(aggregate, forecast);
  b.addEdge(clean, outage);
  b.addEdge(forecast, alerts);
  b.addEdge(outage, alerts);
  const Dataflow df = std::move(b).build();

  ExperimentConfig cfg;
  cfg.horizon_s = 6.0 * kSecondsPerHour;
  cfg.workload.mean_rate = 30.0;  // meter readings/s across campus
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.workload.infra_variability = true;
  cfg.seed = 90089;
  const SimulationEngine engine(df, cfg);
  const ExperimentResult r = engine.run(parseScheduler("global"));

  std::cout << "Smart-grid analytics, 6 h, periodic meter wave around "
            << cfg.workload.mean_rate << " msg/s (global adaptive)\n\n";
  TextTable table({"t(min)", "rate", "omega", "gamma", "VMs", "cores",
                   "cum-cost$"});
  for (const auto& m : r.run.intervals()) {
    if (m.index % 10 != 0) continue;  // one row per 10 minutes
    table.addRow({TextTable::num(m.start / 60.0, 0),
                  TextTable::num(m.input_rate, 1),
                  TextTable::num(m.omega), TextTable::num(m.gamma),
                  std::to_string(m.active_vms),
                  std::to_string(m.allocated_cores),
                  TextTable::num(m.cost_cumulative, 2)});
  }
  std::cout << table.render() << '\n';
  std::cout << "Run summary: avg Omega " << TextTable::num(r.average_omega)
            << (r.constraint_met ? " (constraint met)" : " (MISSED)")
            << ", avg value " << TextTable::num(r.average_gamma)
            << ", total cost $" << TextTable::num(r.total_cost, 2)
            << ", Theta " << TextTable::num(r.theta) << "\n\n"
            << "Reading: core/VM counts breathe with the diurnal wave — "
               "elastic scale-out on\nthe rising edge, scale-in (timed to "
               "paid hour boundaries) on the falling edge,\nwith the "
               "cheap 'spot-check'/'regression-tree' alternates bridging "
               "the peaks.\n";
  return 0;
}

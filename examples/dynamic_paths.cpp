// Dynamic paths example (§9 future work): choose among alternate
// *subgraphs*, not just alternate task implementations.
//
// The application analyzes a stream either with a single deep model or
// with a filter + light-model cascade. We rank the two paths exactly the
// way Alg. 1 ranks alternates — aggregate value over aggregate
// (selectivity-aware) cost — materialize both, run them, and show that
// the ranking agrees with the measured profit.
#include <iostream>

#include "dds/dds.hpp"

int main() {
  using namespace dds;

  const DynamicPathApplication app = makeCascadePathApplication();

  std::cout << "Path group with " << app.variantCount() << " variants:\n";
  for (std::size_t i = 0; i < app.variantCount(); ++i) {
    std::cout << "  [" << i << "] " << app.variant(i).name
              << ": value " << TextTable::num(app.variantValue(i))
              << ", global cost "
              << TextTable::num(app.variantCost(i, Strategy::Global))
              << " core-s/msg, ratio "
              << TextTable::num(app.variantValue(i) /
                                app.variantCost(i, Strategy::Global))
              << '\n';
  }
  const std::size_t chosen = app.selectVariant(Strategy::Global);
  std::cout << "selected: " << app.variant(chosen).name << "\n\n";

  ExperimentConfig cfg;
  cfg.horizon_s = 2.0 * kSecondsPerHour;
  cfg.workload.mean_rate = 15.0;
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.workload.infra_variability = true;

  TextTable table({"path", "omega", "met", "gamma", "cost$", "theta"});
  for (std::size_t i = 0; i < app.variantCount(); ++i) {
    const Dataflow df = app.materialize(i);
    const auto r =
        SimulationEngine(df, cfg).run(parseScheduler("global"));
    table.addRow({app.variant(i).name, TextTable::num(r.average_omega),
                  r.constraint_met ? "yes" : "NO",
                  TextTable::num(r.average_gamma),
                  TextTable::num(r.total_cost, 2),
                  TextTable::num(r.theta)});
  }
  std::cout << table.render() << '\n'
            << "Reading: the cascade path filters 60% of the stream before "
               "the expensive\nstage, so it runs far cheaper at slightly "
               "lower value — the ratio rule picks\nit, and the measured "
               "run agrees.\n";
  return 0;
}

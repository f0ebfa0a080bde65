// Fig. 9 reproduction (and the paper's 10-hour dollar-cost comparison):
// "Dollar cost benefit of application dynamism with continuous
// re-deployment" — total spend over a 10-hour run for the global and local
// heuristics with and without application dynamism (alternate selection),
// across the rate sweep.
//
// Paper claims: global-with-dynamism is cheapest at high rates; disabling
// dynamism costs the global heuristic ~15% more on average; global saves
// up to ~70% vs local-without-dynamism.
#include "bench_util.hpp"

int main() {
  using namespace dds;
  using namespace dds::bench;

  printHeader("Fig. 9",
              "dollar cost of application dynamism over a 10-hour run");

  const Dataflow df = makePaperDataflow();
  const std::vector<SchedulerSpec> kinds = {
      parseScheduler("global"),
      parseScheduler("global-nodyn"),
      parseScheduler("local"),
      parseScheduler("local-nodyn"),
  };

  const std::vector<double> rates = paperRates();
  std::vector<ExperimentConfig> rows;
  for (const double rate : rates) {
    ExperimentConfig cfg;
    cfg.horizon_s = 10.0 * kSecondsPerHour;
    cfg.workload.mean_rate = rate;
    cfg.workload.profile = ProfileKind::PeriodicWave;
    cfg.workload.infra_variability = true;
    cfg.seed = 2013;
    rows.push_back(cfg);
  }
  const auto outcomes = runGrid(df, rows, kinds);

  TextTable table({"rate", "global$", "global-nodyn$", "local$",
                   "local-nodyn$", "dyn-saving%", "global-vs-localnodyn%"});
  std::vector<std::vector<double>> csv;
  double saving_sum = 0.0;
  double best_vs_localnodyn = 0.0;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double rate = rates[i];
    std::vector<double> costs;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      costs.push_back(outcomes[i * kinds.size() + k].result.total_cost);
    }
    const double dyn_saving =
        (costs[1] - costs[0]) / costs[1] * 100.0;  // global vs global-nodyn
    const double vs_localnodyn =
        (costs[3] - costs[0]) / costs[3] * 100.0;  // global vs local-nodyn
    saving_sum += dyn_saving;
    best_vs_localnodyn = std::max(best_vs_localnodyn, vs_localnodyn);
    table.addRow({TextTable::num(rate, 0), TextTable::num(costs[0], 2),
                  TextTable::num(costs[1], 2), TextTable::num(costs[2], 2),
                  TextTable::num(costs[3], 2),
                  TextTable::num(dyn_saving, 1),
                  TextTable::num(vs_localnodyn, 1)});
    csv.push_back({rate, costs[0], costs[1], costs[2], costs[3],
                   dyn_saving, vs_localnodyn});
  }
  printTableAndCsv(table,
                   {"rate", "global", "global_nodyn", "local",
                    "local_nodyn", "dyn_saving_pct", "vs_localnodyn_pct"},
                   csv);

  std::cout << "Measured: application dynamism saves the global heuristic "
            << TextTable::num(saving_sum /
                                  static_cast<double>(paperRates().size()),
                              1)
            << "% on average (paper: ~15%);\nglobal-with-dynamism beats "
               "local-without-dynamism by up to "
            << TextTable::num(best_vs_localnodyn, 1)
            << "% (paper: up to ~70%).\n";
  return 0;
}

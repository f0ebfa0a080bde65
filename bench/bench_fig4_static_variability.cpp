// Fig. 4 reproduction: "Effect of infrastructure and/or data rate
// variability on relative throughput, for static deployments".
//
// Scenario axis: {no variability, data-rate variability only,
// infrastructure variability only, both}; policy axis: {static brute-force
// optimal, local static, global static}; fixed 5 msg/s mean rate,
// Omega-hat = 0.7. The paper's claim: with no variability all statics meet
// the constraint (brute-force best); any variability drags all of them
// below it.
#include "bench_util.hpp"

int main() {
  using namespace dds;
  using namespace dds::bench;

  printHeader("Fig. 4",
              "effect of variability on Omega for static deployments "
              "(5 msg/s)");

  const Dataflow df = makePaperDataflow();
  struct Scenario {
    std::string name;
    bool data_var;
    bool infra_var;
  };
  const std::vector<Scenario> scenarios = {
      {"none", false, false},
      {"data-only", true, false},
      {"infra-only", false, true},
      {"both", true, true},
  };
  const std::vector<SchedulerSpec> kinds = {
      parseScheduler("brute-force-static"),
      parseScheduler("local-static"),
      parseScheduler("global-static"),
  };

  TextTable table({"scenario", "policy", "omega", "met(0.7)", "theta"});
  std::vector<std::vector<double>> csv;
  for (const auto& sc : scenarios) {
    for (const auto kind : kinds) {
      ExperimentConfig cfg;
      cfg.horizon_s = 2.0 * kSecondsPerHour;
      cfg.workload.mean_rate = 5.0;
      cfg.workload.profile =
          sc.data_var ? ProfileKind::PeriodicWave : ProfileKind::Constant;
      cfg.workload.infra_variability = sc.infra_var;
      cfg.seed = 2013;
      const auto r = SimulationEngine(df, cfg).run(kind);
      table.addRow({sc.name, r.scheduler_name,
                    TextTable::num(r.average_omega),
                    constraintMark(r), TextTable::num(r.theta)});
      csv.push_back({static_cast<double>(&sc - scenarios.data()),
                     policyId(kind),
                     r.average_omega, r.constraint_met ? 1.0 : 0.0,
                     r.theta});
    }
  }
  printTableAndCsv(table,
                   {"scenario", "policy", "omega", "met", "theta"}, csv);

  std::cout << "Paper claim: with no variability every static policy "
               "satisfies Omega >= 0.7\n(brute-force best); introducing "
               "data and/or infrastructure variability drops\nstatic "
               "deployments' Omega, often below the constraint — proving "
               "the need for\ncontinuous re-deployment.\n";
  return 0;
}

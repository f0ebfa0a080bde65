// Trade-off explorer — sweeps the two user-facing knobs of the §6
// optimization problem and prints the resulting operating points:
//   * sigma, the value/cost equivalence factor (how many dollars one unit
//     of application value is worth), swept as multiples of the derived
//     §8.2 default;
//   * Omega-hat, the relative-throughput constraint.
// Useful for answering "what do I give up if I tighten the constraint?"
// and "when does the optimizer stop paying for the accurate alternates?".
#include <iostream>

#include "dds/dds.hpp"

int main() {
  using namespace dds;

  const Dataflow df = makePaperDataflow();

  ExperimentConfig base;
  base.horizon_s = 2.0 * kSecondsPerHour;
  base.workload.mean_rate = 20.0;
  base.workload.profile = ProfileKind::PeriodicWave;
  base.workload.infra_variability = true;

  const double sigma0 =
      deriveSigma(df, base.workload.mean_rate, base.horizon_s);

  std::cout << "Trade-off explorer on the paper's Fig. 1 dataflow, "
            << base.workload.mean_rate << " msg/s wave, 2 h (global adaptive)\n"
            << "derived sigma0 = " << sigma0 << " per dollar\n\n";

  // --- sigma sweep at fixed Omega-hat = 0.7 ---
  std::cout << "(a) sigma sweep (Omega-hat = 0.7): cost-sensitivity of the "
               "optimizer\n";
  TextTable sig_table({"sigma/sigma0", "omega", "value", "cost$", "theta"});
  for (const double mult : {0.0, 0.25, 1.0, 4.0, 16.0}) {
    ExperimentConfig cfg = base;
    cfg.sigma_override = sigma0 * mult;
    const auto r =
        SimulationEngine(df, cfg).run(parseScheduler("global"));
    sig_table.addRow({TextTable::num(mult, 2),
                      TextTable::num(r.average_omega),
                      TextTable::num(r.average_gamma),
                      TextTable::num(r.total_cost, 2),
                      TextTable::num(r.theta)});
  }
  std::cout << sig_table.render() << '\n';

  // --- Omega-hat sweep at the derived sigma ---
  std::cout << "(b) Omega-hat sweep (sigma = sigma0): the price of a "
               "tighter throughput floor\n";
  TextTable om_table(
      {"omega-hat", "omega", "met", "value", "cost$", "theta"});
  for (const double target : {0.5, 0.6, 0.7, 0.8, 0.9, 0.99}) {
    ExperimentConfig cfg = base;
    cfg.omega_target = target;
    const auto r =
        SimulationEngine(df, cfg).run(parseScheduler("global"));
    om_table.addRow({TextTable::num(target, 2),
                     TextTable::num(r.average_omega),
                     r.constraint_met ? "yes" : "NO",
                     TextTable::num(r.average_gamma),
                     TextTable::num(r.total_cost, 2),
                     TextTable::num(r.theta)});
  }
  std::cout << om_table.render() << '\n';

  std::cout << "Reading: (a) as sigma grows, dollars dominate the "
               "objective and the scheduler\nleans on cheap alternates and "
               "leaner allocations; (b) tightening Omega-hat\nbuys "
               "throughput with more cores — the cost column is the price "
               "of QoS.\n";
  return 0;
}

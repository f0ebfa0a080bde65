// Catalog-granularity study: how the resource-class menu shapes cost.
//
// The §6 problem packs PE demands into VMs of different classes; how well
// the packing fits depends on what the provider sells. This bench runs the
// global adaptive heuristic over the rate sweep with three catalogs:
//   m1    — the paper's fine-grained first generation (1..8 power units);
//   m3    — second generation only: big, fast, coarse (13..26 units);
//   mixed — both menus.
// Claim to check: coarse classes waste money at low rates (the smallest
// purchasable step exceeds the demand), while at high rates the cheaper
// per-unit m1 pricing keeps winning — the menu matters most at the edges.
#include "bench_util.hpp"

int main() {
  using namespace dds;
  using namespace dds::bench;

  printHeader("Catalog",
              "resource-class granularity vs cost (global adaptive, "
              "2 h wave + infra var)");

  const Dataflow df = makePaperDataflow();
  TextTable table({"rate", "m1$", "m3$", "mixed$", "mixed+cheap$",
                   "m1-omega", "mixed+cheap-omega"});
  std::vector<std::vector<double>> csv;
  for (const double rate : paperRates()) {
    std::vector<double> costs, omegas;
    for (int variant = 0; variant < 4; ++variant) {
      ExperimentConfig cfg;
      cfg.horizon_s = 2.0 * kSecondsPerHour;
      cfg.workload.mean_rate = rate;
      cfg.workload.profile = ProfileKind::PeriodicWave;
      cfg.workload.infra_variability = true;
      cfg.seed = 2013;
      cfg.catalog = variant == 0 ? "m1" : variant == 1 ? "m3" : "mixed";
      if (variant == 3) {
        cfg.heuristic.acquisition =
            ResourceAllocator::AcquisitionPolicy::CheapestPower;
      }
      const auto r =
          SimulationEngine(df, cfg).run(parseScheduler("global"));
      costs.push_back(r.total_cost);
      omegas.push_back(r.average_omega);
    }
    table.addRow({TextTable::num(rate, 0), TextTable::num(costs[0], 2),
                  TextTable::num(costs[1], 2), TextTable::num(costs[2], 2),
                  TextTable::num(costs[3], 2), TextTable::num(omegas[0]),
                  TextTable::num(omegas[3])});
    csv.push_back({rate, costs[0], costs[1], costs[2], costs[3], omegas[0],
                   omegas[3]});
  }
  printTableAndCsv(table,
                   {"rate", "m1_cost", "m3_cost", "mixed_cost",
                    "mixed_cheap_cost", "m1_omega", "mixed_cheap_omega"},
                   csv);

  std::cout << "Reading: with only coarse m3 classes every run pays the "
               "higher per-unit price.\nThe plain mixed menu exposes a "
               "weakness of Alg. 1's largest-class-first rule —\nit keeps "
               "buying the biggest (here: priciest per unit) class. The "
               "cheapest-power\nacquisition policy (our extension, "
               "`heuristic.acquisition`) recovers the\nm1 price line "
               "exactly while keeping the same throughput.\n";
  return 0;
}

// Ablation bench for the design choices DESIGN.md calls out:
//  (a) global deployment-time repacking (Table 1's RepackPE + iterative
//      repacking) on vs off;
//  (b) empty-VM release policy: immediate vs at the paid hour boundary;
//  (c, d) the Alg. 2 stage cadences n_a (alternate period) and n_r
//      (resource period);
//  (e) EWMA smoothing of the monitoring probes.
// Each row is one SimulationEngine run of the global heuristic with one
// ExperimentConfig knob changed (`heuristic.*` or power_smoothing_alpha),
// on the Fig. 1 dataflow under data + infrastructure variability unless
// its label says otherwise; it reports Omega / cost / Theta.
#include "bench_util.hpp"

namespace {

using namespace dds;
using namespace dds::bench;

struct Row {
  std::string label;
  ExperimentResult result;
};

/// The bench's run: 4 h of a `rate` msgs/s-mean wave under FutureGrid
/// variability, seed 2013, with the heuristic's default knobs.
ExperimentConfig waveConfig(double rate) {
  ExperimentConfig cfg;
  cfg.horizon_s = 4.0 * kSecondsPerHour;
  cfg.workload.mean_rate = rate;
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.workload.infra_variability = true;
  cfg.seed = 2013;
  return cfg;
}

ExperimentResult runGlobal(const Dataflow& df, const ExperimentConfig& cfg) {
  return SimulationEngine(df, cfg).run(parseScheduler("global"));
}

void printRows(const std::string& caption, const std::vector<Row>& rows) {
  std::cout << caption << '\n';
  TextTable table({"variant", "omega", "met", "cost$", "theta"});
  for (const auto& row : rows) {
    table.addRow({row.label, TextTable::num(row.result.average_omega),
                  constraintMark(row.result),
                  TextTable::num(row.result.total_cost, 2),
                  TextTable::num(row.result.theta)});
  }
  std::cout << table.render() << '\n';
}

}  // namespace

int main() {
  using namespace dds;
  using namespace dds::bench;

  printHeader("Ablations",
              "design-choice ablations for the global heuristic "
              "(20 msg/s wave + infra variability, 4 h)");
  const Dataflow df = makePaperDataflow();
  const double rate = 20.0;

  {
    // The paper graph at both ends of the rate sweep, where repacking
    // changes nothing, then a six-stage chain at a steady 20 msg/s on
    // rated VMs, where it frees a quarter of the cores (12 -> 9).
    std::vector<Row> rows;
    const auto addPair = [&rows](const Dataflow& graph, ExperimentConfig cfg,
                                 const std::string& what) {
      rows.push_back({"repacking on,  " + what, runGlobal(graph, cfg)});
      cfg.heuristic.enable_repacking = false;
      rows.push_back({"repacking off, " + what, runGlobal(graph, cfg)});
    };
    for (const double r : {2.0, rate}) {
      addPair(df, waveConfig(r), TextTable::num(r, 0) + " msg/s");
    }
    ExperimentConfig steady = waveConfig(rate);
    steady.workload.profile = ProfileKind::Constant;
    steady.workload.infra_variability = false;
    addPair(makeChainDataflow(6, 3), steady, "chain6");
    printRows("(a) deployment-time repacking:", rows);
  }
  {
    std::vector<Row> rows;
    ExperimentConfig cfg = waveConfig(rate);
    cfg.heuristic.release_policy_override =
        ResourceAllocator::ReleasePolicy::AtHourBoundary;
    rows.push_back({"release at hour boundary", runGlobal(df, cfg)});
    cfg.heuristic.release_policy_override =
        ResourceAllocator::ReleasePolicy::Immediate;
    rows.push_back({"release immediately", runGlobal(df, cfg)});
    printRows("(b) empty-VM release policy:", rows);
  }
  {
    std::vector<Row> rows;
    for (const IntervalIndex na : {1, 2, 5, 10}) {
      ExperimentConfig cfg = waveConfig(rate);
      cfg.heuristic.alternate_period = na;
      rows.push_back({"n_a = " + std::to_string(na), runGlobal(df, cfg)});
    }
    printRows("(c) alternate-selection cadence n_a (n_r = 1):", rows);
  }
  {
    std::vector<Row> rows;
    for (const IntervalIndex nr : {1, 2, 5, 10}) {
      ExperimentConfig cfg = waveConfig(rate);
      cfg.heuristic.resource_period = nr;
      rows.push_back({"n_r = " + std::to_string(nr), runGlobal(df, cfg)});
    }
    printRows("(d) resource-allocation cadence n_r (n_a = 2):", rows);
  }
  {
    std::vector<Row> rows;
    for (const double alpha : {1.0, 0.5, 0.25, 0.1}) {
      ExperimentConfig cfg = waveConfig(rate);
      cfg.power_smoothing_alpha = alpha;
      rows.push_back({"alpha = " + TextTable::num(alpha, 2),
                      runGlobal(df, cfg)});
    }
    printRows("(e) probe smoothing (EWMA alpha; 1.0 = raw probes):", rows);
  }

  std::cout << "Reading: boundary-timed releases shave real dollars at no "
               "QoS cost. Repacking\nleaves the paper graph's rows identical "
               "at 2 and 20 msg/s. On the six-stage chain\n(20 msg/s steady, "
               "rated VMs) it cuts cost by a quarter but lowers theta: the\n"
               "cores it frees are the slack the alternate stage spends on "
               "higher-value\nalternates. The alternate stage must stay fast "
               "(slowing n_a forfeits the\ncheap-alternate savings); the "
               "resource stage tolerates a slower cadence on\nslow-moving "
               "workloads, where less churn even saves hourly-billed\n"
               "acquisitions.\n";
  return 0;
}

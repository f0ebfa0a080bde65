// Ablation bench for the design choices DESIGN.md calls out:
//  (a) global deployment-time repacking (Table 1's RepackPE + iterative
//      repacking) on vs off;
//  (b) empty-VM release policy: immediate vs at the paid hour boundary;
//  (c) the Alg. 2 stage cadences n_a (alternate period) and n_r (resource
//      period);
//  (d) the throughput tolerance epsilon.
// Each section runs the global heuristic on the Fig. 1 dataflow under
// data + infrastructure variability and reports Omega / cost / Theta.
#include "bench_util.hpp"

namespace {

using namespace dds;
using namespace dds::bench;

struct Row {
  std::string label;
  ExperimentResult result;
};

ExperimentResult runWith(const Dataflow& df, HeuristicOptions opts,
                         double rate, IntervalIndex alternate_period = 2,
                         IntervalIndex resource_period = 1,
                         double smoothing_alpha = 1.0) {
  // Mirrors SimulationEngine::run for GlobalAdaptive but with custom
  // HeuristicOptions, which the engine does not expose.
  ExperimentConfig cfg;
  cfg.horizon_s = 4.0 * kSecondsPerHour;
  cfg.workload.mean_rate = rate;
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.workload.infra_variability = true;
  cfg.seed = 2013;
  cfg.alternate_period = alternate_period;
  cfg.resource_period = resource_period;
  cfg.validate();

  CloudProvider cloud(awsCatalog2013());
  TraceReplayer replayer = TraceReplayer::futureGridLike(cfg.seed);
  MonitoringService monitor(cloud, replayer);
  ProbeHistory probes(monitor, smoothing_alpha);
  SimConfig sim_cfg;
  sim_cfg.interval_s = cfg.interval_s;

  SchedulerEnv env;
  env.dataflow = &df;
  env.cloud = &cloud;
  env.monitor = &monitor;
  if (smoothing_alpha < 1.0) env.probes = &probes;
  env.sim_config = sim_cfg;
  env.omega_target = cfg.omega_target;
  env.epsilon = cfg.epsilon;

  opts.alternate_period = alternate_period;
  opts.resource_period = resource_period;
  HeuristicScheduler scheduler(env, Strategy::Global, opts);

  const auto profile =
      makeProfile(cfg.workload.profile, cfg.workload.mean_rate, cfg.horizon_s,
                  cfg.seed ^ 0x5bd1e995u);
  const IntervalClock clock(cfg.interval_s, cfg.horizon_s);
  Deployment deployment = scheduler.deploy(profile->rate(0.0));
  DataflowSimulator simulator(df, cloud, monitor, sim_cfg);

  ExperimentResult result;
  result.scheduler_name =
      schedulerName({SchedulerSpec::Family::Heuristic, Strategy::Global,
                     opts.mode});
  result.sigma = deriveSigma(df, cfg.workload.mean_rate, cfg.horizon_s);
  double omega_sum = 0.0;
  IntervalMetrics last{};
  for (IntervalIndex i = 0; i < clock.intervalCount(); ++i) {
    const SimTime now = clock.startOf(i);
    if (env.probes != nullptr) probes.probe(now);
    if (i > 0) {
      ObservedState state;
      state.interval = i;
      state.now = now;
      state.input_rate = profile->rate(clock.startOf(i - 1));
      state.average_omega = omega_sum / static_cast<double>(i);
      state.last_interval = &last;
      for (const MigrationEvent& ev : scheduler.adapt(state, deployment)) {
        simulator.migrateBacklog(ev.pe, ev.backlog_fraction);
      }
    }
    last = simulator.step(i, profile->rate(now), deployment);
    omega_sum += last.omega;
    result.run.add(last);
  }
  result.average_omega = result.run.averageOmega();
  result.average_gamma = result.run.averageGamma();
  result.total_cost = cloud.accumulatedCost(cfg.horizon_s);
  result.theta = result.average_gamma - result.sigma * result.total_cost;
  result.constraint_met =
      result.run.meetsThroughputConstraint(cfg.omega_target, cfg.epsilon);
  return result;
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
    // Repacking matters most when deployments are small and fragmented,
    // so this ablation runs at both ends of the rate sweep.
    std::vector<Row> rows;
    for (const double r : {2.0, rate}) {
      HeuristicOptions on;
      rows.push_back({"repacking on,  " + TextTable::num(r, 0) + " msg/s",
                      runWith(df, on, r)});
      HeuristicOptions off;
      off.enable_repacking = false;
      rows.push_back({"repacking off, " + TextTable::num(r, 0) + " msg/s",
                      runWith(df, off, r)});
    }
    printRows("(a) deployment-time repacking:", rows);
  }
  {
    std::vector<Row> rows;
    HeuristicOptions boundary;
    boundary.release_policy_override =
        ResourceAllocator::ReleasePolicy::AtHourBoundary;
    rows.push_back({"release at hour boundary", runWith(df, boundary, rate)});
    HeuristicOptions immediate;
    immediate.release_policy_override =
        ResourceAllocator::ReleasePolicy::Immediate;
    rows.push_back({"release immediately", runWith(df, immediate, rate)});
    printRows("(b) empty-VM release policy:", rows);
  }
  {
    std::vector<Row> rows;
    for (const IntervalIndex na : {1, 2, 5, 10}) {
      rows.push_back({"n_a = " + std::to_string(na),
                      runWith(df, {}, rate, na, 1)});
    }
    printRows("(c) alternate-selection cadence n_a (n_r = 1):", rows);
  }
  {
    std::vector<Row> rows;
    for (const IntervalIndex nr : {1, 2, 5, 10}) {
      rows.push_back({"n_r = " + std::to_string(nr),
                      runWith(df, {}, rate, 2, nr)});
    }
    printRows("(d) resource-allocation cadence n_r (n_a = 2):", rows);
  }
  {
    std::vector<Row> rows;
    for (const double alpha : {1.0, 0.5, 0.25, 0.1}) {
      rows.push_back({"alpha = " + TextTable::num(alpha, 2),
                      runWith(df, {}, rate, 2, 1, alpha)});
    }
    printRows("(e) probe smoothing (EWMA alpha; 1.0 = raw probes):", rows);
  }

  std::cout << "Reading: boundary-timed releases shave real dollars at no "
               "QoS cost, and\nrepacking helps when deployments are small "
               "and fragmented. The alternate stage\nmust stay fast "
               "(slowing n_a forfeits the cheap-alternate savings); the\n"
               "resource stage tolerates a slower cadence on slow-moving "
               "workloads, where\nless churn even saves hourly-billed "
               "acquisitions.\n";
  return 0;
}

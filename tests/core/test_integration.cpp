// End-to-end integration tests asserting the paper's qualitative claims
// (§8.2) hold in this reproduction:
//  * static deployments degrade under data/infra variability (Fig. 4);
//  * adaptive heuristics recover the constraint where statics fail;
//  * application dynamism lowers cost at equal-or-better feasibility
//    (Fig. 9's ~15% claim, asserted directionally);
//  * the objective ranking logic (constraint first, then Theta) works.
#include <gtest/gtest.h>

#include "dds/core/engine.hpp"
#include "dds/dataflow/standard_graphs.hpp"
#include "dds/sched/heuristic_scheduler.hpp"

namespace dds {
namespace {

ExperimentConfig baseConfig(double rate) {
  ExperimentConfig cfg;
  cfg.horizon_s = 2.0 * kSecondsPerHour;
  cfg.interval_s = 60.0;
  cfg.workload.mean_rate = rate;
  return cfg;
}

TEST(Integration, StaticHandlesNoVariability) {
  const Dataflow df = makePaperDataflow();
  const auto cfg = baseConfig(5.0);
  for (const auto kind : {parseScheduler("local-static"),
                          parseScheduler("global-static"),
                          parseScheduler("brute-force-static")}) {
    const auto r = SimulationEngine(df, cfg).run(kind);
    EXPECT_TRUE(r.constraint_met)
        << schedulerName(kind) << " omega " << r.average_omega;
  }
}

TEST(Integration, DataVariabilityHurtsStaticDeployments) {
  // Fig. 4: with wave input, a static plan sized for the mean rate starves
  // at the peaks, dropping omega below the no-variability case.
  const Dataflow df = makePaperDataflow();
  auto cfg = baseConfig(5.0);
  const auto calm =
      SimulationEngine(df, cfg).run(parseScheduler("global-static"));
  cfg.workload.profile = ProfileKind::PeriodicWave;
  const auto wavy =
      SimulationEngine(df, cfg).run(parseScheduler("global-static"));
  EXPECT_LT(wavy.average_omega, calm.average_omega);
}

TEST(Integration, InfraVariabilityHurtsStaticDeployments) {
  const Dataflow df = makePaperDataflow();
  auto cfg = baseConfig(5.0);
  const auto ideal =
      SimulationEngine(df, cfg).run(parseScheduler("local-static"));
  cfg.workload.infra_variability = true;
  const auto noisy =
      SimulationEngine(df, cfg).run(parseScheduler("local-static"));
  EXPECT_LE(noisy.average_omega, ideal.average_omega + 1e-9);
}

TEST(Integration, AdaptiveHoldsConstraintUnderBothVariabilities) {
  const Dataflow df = makePaperDataflow();
  auto cfg = baseConfig(10.0);
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.workload.infra_variability = true;
  const auto adaptive =
      SimulationEngine(df, cfg).run(parseScheduler("global"));
  EXPECT_TRUE(adaptive.constraint_met) << adaptive.average_omega;
}

TEST(Integration, ElasticityHarvestsOverestimatedRates) {
  // The deployment-time rate is only an estimate (§7.1). When the real
  // stream runs at a tenth of it, the adaptive policy scales in and
  // releases VMs at their paid hour boundaries, while the static
  // deployment keeps paying for the over-provisioned fleet. Wired by hand
  // so the estimate and the observed rate can differ.
  const Dataflow df = makePaperDataflow();
  const double estimated_rate = 40.0;
  const double actual_rate = 4.0;
  const SimTime horizon = 2.0 * kSecondsPerHour;

  auto runPolicy = [&](bool adaptive) {
    CloudProvider cloud(awsCatalog2013());
    TraceReplayer replayer = TraceReplayer::ideal();
    MonitoringService mon(cloud, replayer);
    SchedulerEnv env;
    env.dataflow = &df;
    env.cloud = &cloud;
    env.monitor = &mon;
    HeuristicScheduler sched(env, Strategy::Global,
                             adaptive ? SchedulerSpec::Mode::Adaptive
                                      : SchedulerSpec::Mode::Static);
    Deployment dep = sched.deploy(estimated_rate);
    DataflowSimulator sim(df, cloud, mon, {});
    IntervalMetrics last{};
    double omega_sum = 0.0;
    for (IntervalIndex i = 0; i < 120; ++i) {
      if (i > 0) {
        ObservedState st;
        st.interval = i;
        st.now = static_cast<SimTime>(i) * 60.0;
        st.input_rate = actual_rate;
        st.average_omega = omega_sum / static_cast<double>(i);
        st.last_interval = &last;
        for (const auto& ev : sched.adapt(st, dep)) {
          sim.migrateBacklog(ev.pe, ev.backlog_fraction);
        }
      }
      last = sim.step(i, actual_rate, dep);
      omega_sum += last.omega;
    }
    return std::pair{cloud.accumulatedCost(horizon), omega_sum / 120.0};
  };

  const auto [adaptive_cost, adaptive_omega] = runPolicy(true);
  const auto [static_cost, static_omega] = runPolicy(false);
  EXPECT_LT(adaptive_cost, static_cost);
  EXPECT_GE(adaptive_omega, 0.7 - 0.05);
  EXPECT_GE(static_omega, 0.7 - 0.05);  // static over-provisions, QoS fine
}

TEST(Integration, AdaptiveMeetsConstraintAcrossProfiles) {
  const Dataflow df = makePaperDataflow();
  for (const auto profile :
       {ProfileKind::Constant, ProfileKind::PeriodicWave,
        ProfileKind::RandomWalk}) {
    auto cfg = baseConfig(10.0);
    cfg.workload.profile = profile;
    cfg.workload.infra_variability = true;
    for (const auto kind :
         {parseScheduler("local"), parseScheduler("global")}) {
      const auto r = SimulationEngine(df, cfg).run(kind);
      EXPECT_TRUE(r.constraint_met)
          << schedulerName(kind) << " on " << profileName(profile) << ": "
          << r.average_omega;
    }
  }
}

TEST(Integration, DynamismReducesCost) {
  // Fig. 9: disabling alternate selection forces the expensive best-value
  // alternates, so the no-dynamism variant pays at least as much.
  const Dataflow df = makePaperDataflow();
  auto cfg = baseConfig(20.0);
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.workload.infra_variability = true;
  const auto with_dyn =
      SimulationEngine(df, cfg).run(parseScheduler("global"));
  const auto without_dyn =
      SimulationEngine(df, cfg).run(parseScheduler("global-nodyn"));
  EXPECT_LE(with_dyn.total_cost, without_dyn.total_cost + 1e-9);
}

TEST(Integration, DynamismImprovesTheta) {
  const Dataflow df = makePaperDataflow();
  auto cfg = baseConfig(20.0);
  cfg.workload.profile = ProfileKind::PeriodicWave;
  const auto with_dyn =
      SimulationEngine(df, cfg).run(parseScheduler("local"));
  const auto without_dyn =
      SimulationEngine(df, cfg).run(parseScheduler("local-nodyn"));
  EXPECT_GE(with_dyn.theta, without_dyn.theta - 1e-9);
}

TEST(Integration, HigherRatesCostMore) {
  const Dataflow df = makePaperDataflow();
  double prev_cost = 0.0;
  for (const double rate : {5.0, 20.0, 50.0}) {
    const auto r = SimulationEngine(df, baseConfig(rate))
                       .run(parseScheduler("global"));
    EXPECT_GE(r.total_cost, prev_cost);
    prev_cost = r.total_cost;
  }
}

TEST(Integration, WorksOnLargerGraphs) {
  Rng rng(17);
  const Dataflow df = makeLayeredDataflow(5, 3, 3, rng);
  auto cfg = baseConfig(10.0);
  cfg.horizon_s = 30.0 * kSecondsPerMinute;
  cfg.workload.profile = ProfileKind::RandomWalk;
  cfg.workload.infra_variability = true;
  for (const auto kind :
       {parseScheduler("local"), parseScheduler("global")}) {
    const auto r = SimulationEngine(df, cfg).run(kind);
    EXPECT_GT(r.average_omega, 0.0) << schedulerName(kind);
    EXPECT_GT(r.total_cost, 0.0);
    EXPECT_EQ(r.run.intervals().size(), 30u);
  }
}

TEST(Integration, ScalesToHundredsOfCores) {
  // The paper scales to "100's of VMs"; at 50 msg/s with heavy alternates
  // the no-dynamism run needs tens of cores across many VMs.
  const Dataflow df = makePaperDataflow();
  auto cfg = baseConfig(50.0);
  cfg.horizon_s = 30.0 * kSecondsPerMinute;
  const auto r =
      SimulationEngine(df, cfg).run(parseScheduler("global-nodyn"));
  EXPECT_GE(r.peak_cores, 60);
  EXPECT_TRUE(r.constraint_met) << r.average_omega;
}

}  // namespace
}  // namespace dds

#include "dds/sched/heuristic_scheduler.hpp"

#include <gtest/gtest.h>

#include "dds/dataflow/standard_graphs.hpp"
#include "dds/sim/rate_model.hpp"

namespace dds {
namespace {

struct Fixture {
  explicit Fixture(Dataflow graph) : df(std::move(graph)) {}
  Dataflow df;
  CloudProvider cloud{awsCatalog2013()};
  TraceReplayer replayer = TraceReplayer::ideal();
  MonitoringService mon{cloud, replayer};

  SchedulerEnv env() {
    SchedulerEnv e;
    e.dataflow = &df;
    e.cloud = &cloud;
    e.monitor = &mon;
    e.omega_target = 0.7;
    e.epsilon = 0.05;
    return e;
  }
};

TEST(HeuristicScheduler, Names) {
  // A heuristic policy is named by its spec: strategy plus mode suffix.
  using Mode = SchedulerSpec::Mode;
  const auto name = [](Strategy strategy, Mode mode) {
    return schedulerName(
        {SchedulerSpec::Family::Heuristic, strategy, mode});
  };
  EXPECT_EQ(name(Strategy::Local, Mode::Adaptive), "local");
  EXPECT_EQ(name(Strategy::Global, Mode::Static), "global-static");
  EXPECT_EQ(name(Strategy::Local, Mode::NoDyn), "local-nodyn");
  EXPECT_EQ(name(Strategy::Global, Mode::Predictive), "global-predictive");
}

TEST(HeuristicScheduler, DeployMeetsPlannedConstraint) {
  for (const auto strategy : {Strategy::Local, Strategy::Global}) {
    Fixture f(makePaperDataflow());
    HeuristicScheduler sched(f.env(), strategy);
    const Deployment dep = sched.deploy(10.0);
    ResourceAllocator probe(f.df, f.cloud, 0.7);
    const auto proj = projectThroughput(
        f.df, dep, 10.0, probe.allocatedPower(ratedCorePowerFn(f.cloud)));
    EXPECT_GE(proj.omega, 0.7 - 1e-9) << toString(strategy);
  }
}

TEST(HeuristicScheduler, DeployGivesEveryPeACore) {
  Fixture f(makePaperDataflow());
  HeuristicScheduler sched(f.env(), Strategy::Global);
  (void)sched.deploy(5.0);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_GE(totalCores(f.cloud, PeId(i)), 1);
  }
}

TEST(HeuristicScheduler, DynamismSelectsValueCostAlternates) {
  Fixture f(makePaperDataflow());
  HeuristicScheduler sched(f.env(), Strategy::Local);
  const Deployment dep = sched.deploy(5.0);
  // Local ratios favour the fast alternates on both E2 and E3.
  EXPECT_EQ(dep.activeAlternate(PeId(1)), AlternateId(1));
  EXPECT_EQ(dep.activeAlternate(PeId(2)), AlternateId(1));
}

TEST(HeuristicScheduler, NoDynVariantFixesBestValue) {
  Fixture f(makePaperDataflow());
  HeuristicScheduler sched(f.env(), Strategy::Local,
                           SchedulerSpec::Mode::NoDyn);
  const Deployment dep = sched.deploy(5.0);
  EXPECT_EQ(dep.activeAlternate(PeId(1)), AlternateId(0));
  EXPECT_EQ(dep.activeAlternate(PeId(2)), AlternateId(0));
}

TEST(HeuristicScheduler, GlobalDeploymentCostsNoMoreThanLocal) {
  for (const double rate : {5.0, 15.0, 30.0, 50.0}) {
    Fixture fl(makePaperDataflow());
    HeuristicScheduler local(fl.env(), Strategy::Local);
    (void)local.deploy(rate);

    Fixture fg(makePaperDataflow());
    HeuristicScheduler global(fg.env(), Strategy::Global);
    (void)global.deploy(rate);

    // Compare the committed hourly spend right after deployment.
    const double local_cost = fl.cloud.accumulatedCost(kSecondsPerHour);
    const double global_cost = fg.cloud.accumulatedCost(kSecondsPerHour);
    EXPECT_LE(global_cost, local_cost + 1e-9) << "rate " << rate;
  }
}

TEST(HeuristicScheduler, StaticVariantNeverAdapts) {
  Fixture f(makePaperDataflow());
  HeuristicScheduler sched(f.env(), Strategy::Global,
                           SchedulerSpec::Mode::Static);
  Deployment dep = sched.deploy(5.0);
  const int cores_before = totalAllocatedCores(f.cloud);

  IntervalMetrics last;
  last.omega = 0.1;  // dire straits; a live scheduler would react
  ObservedState state;
  state.interval = 4;
  state.now = 240.0;
  state.input_rate = 50.0;
  state.average_omega = 0.1;
  state.last_interval = &last;
  const auto migrations = sched.adapt(state, dep);
  EXPECT_TRUE(migrations.empty());
  EXPECT_EQ(totalAllocatedCores(f.cloud), cores_before);
}

TEST(HeuristicScheduler, AdaptScalesOutUnderLoad) {
  Fixture f(makePaperDataflow());
  HeuristicScheduler sched(f.env(), Strategy::Global);
  Deployment dep = sched.deploy(5.0);
  const int cores_before = totalAllocatedCores(f.cloud);

  IntervalMetrics last;
  last.omega = 0.4;
  ObservedState state;
  state.interval = 1;
  state.now = 60.0;
  state.input_rate = 40.0;  // the rate jumped 8x
  state.average_omega = 0.4;
  state.last_interval = &last;
  (void)sched.adapt(state, dep);
  EXPECT_GT(totalAllocatedCores(f.cloud), cores_before);
}

TEST(HeuristicScheduler, AdaptScalesInWhenOverprovisioned) {
  Fixture f(makePaperDataflow());
  HeuristicScheduler sched(f.env(), Strategy::Global);
  Deployment dep = sched.deploy(50.0);
  const int cores_before = totalAllocatedCores(f.cloud);

  IntervalMetrics last;
  last.omega = 1.0;
  ObservedState state;
  state.interval = 1;
  state.now = 60.0;
  state.input_rate = 5.0;  // the rate collapsed
  state.average_omega = 1.0;
  state.last_interval = &last;
  (void)sched.adapt(state, dep);
  EXPECT_LT(totalAllocatedCores(f.cloud), cores_before);
}

TEST(HeuristicScheduler, AdaptDoesNothingInsideTheBand) {
  Fixture f(makePaperDataflow());
  HeuristicScheduler sched(f.env(), Strategy::Global);
  Deployment dep = sched.deploy(10.0);
  const int cores_before = totalAllocatedCores(f.cloud);

  IntervalMetrics last;
  last.omega = 0.72;  // inside [omega_hat, omega_hat + eps]
  ObservedState state;
  state.interval = 1;
  state.now = 60.0;
  state.input_rate = 10.0;
  state.average_omega = 0.72;
  state.last_interval = &last;
  (void)sched.adapt(state, dep);
  EXPECT_EQ(totalAllocatedCores(f.cloud), cores_before);
}

TEST(HeuristicScheduler, AlternatePhaseUpgradesValueWhenAhead) {
  Fixture f(makePaperDataflow());
  HeuristicScheduler sched(f.env(), Strategy::Local);
  Deployment dep = sched.deploy(5.0);
  ASSERT_EQ(dep.activeAlternate(PeId(1)), AlternateId(1));  // fast

  // Plenty of free resources: acquire idle xlarges covering the jump from
  // the fast alternates (4 + 4.8 c/msg) to the accurate ones (8 + 12).
  for (int i = 0; i < 10; ++i) {
    (void)f.cloud.acquire(ResourceClassId(3), 0.0);
  }

  IntervalMetrics last;
  last.omega = 1.0;  // comfortably over-provisioned
  ObservedState state;
  state.interval = 2;  // alternate phase runs on even intervals by default
  state.now = 120.0;
  state.input_rate = 5.0;
  state.average_omega = 1.0;
  state.last_interval = &last;
  (void)sched.adapt(state, dep);
  // With omega over the band and free capacity, at least one PE should
  // have upgraded toward the higher-value (more expensive) alternate.
  const bool upgraded =
      dep.activeAlternate(PeId(1)) == AlternateId(0) ||
      dep.activeAlternate(PeId(2)) == AlternateId(0);
  EXPECT_TRUE(upgraded);
}

TEST(HeuristicScheduler, AlternatePhaseDowngradesWhenBehind) {
  Fixture f(makePaperDataflow());
  HeuristicScheduler sched(f.env(), Strategy::Local,
                           SchedulerSpec::Mode::Adaptive);
  Deployment dep = sched.deploy(5.0);
  // Force the expensive alternates on, as if the workload had been light.
  dep.setActiveAlternate(PeId(1), AlternateId(0));
  dep.setActiveAlternate(PeId(2), AlternateId(0));

  IntervalMetrics last;
  last.omega = 0.3;  // starved
  ObservedState state;
  state.interval = 2;
  state.now = 120.0;
  state.input_rate = 30.0;
  state.average_omega = 0.3;
  state.last_interval = &last;
  (void)sched.adapt(state, dep);
  // Behind on throughput: the cheaper alternates become feasible and win.
  EXPECT_EQ(dep.activeAlternate(PeId(1)), AlternateId(1));
  EXPECT_EQ(dep.activeAlternate(PeId(2)), AlternateId(1));
}

TEST(HeuristicScheduler, NoDynNeverSwitchesAlternates) {
  Fixture f(makePaperDataflow());
  HeuristicScheduler sched(f.env(), Strategy::Global,
                           SchedulerSpec::Mode::NoDyn);
  Deployment dep = sched.deploy(5.0);

  IntervalMetrics last;
  last.omega = 0.2;
  ObservedState state;
  state.interval = 2;
  state.now = 120.0;
  state.input_rate = 40.0;
  state.average_omega = 0.2;
  state.last_interval = &last;
  (void)sched.adapt(state, dep);
  EXPECT_EQ(dep.activeAlternate(PeId(1)), AlternateId(0));
  EXPECT_EQ(dep.activeAlternate(PeId(2)), AlternateId(0));
}

TEST(HeuristicScheduler, AlternatePeriodGatesSwitching) {
  Fixture f(makePaperDataflow());
  HeuristicScheduler sched(f.env(), Strategy::Local,
                           SchedulerSpec::Mode::Adaptive,
                           {.alternate_period = 4});
  Deployment dep = sched.deploy(5.0);
  dep.setActiveAlternate(PeId(1), AlternateId(0));

  IntervalMetrics last;
  last.omega = 0.3;
  ObservedState state;
  state.interval = 2;  // not a multiple of 4: alternate phase must skip
  state.now = 120.0;
  state.input_rate = 30.0;
  state.average_omega = 0.3;
  state.last_interval = &last;
  (void)sched.adapt(state, dep);
  EXPECT_EQ(dep.activeAlternate(PeId(1)), AlternateId(0));

  state.interval = 4;
  state.now = 240.0;
  (void)sched.adapt(state, dep);
  EXPECT_EQ(dep.activeAlternate(PeId(1)), AlternateId(1));
}

TEST(HeuristicScheduler, RejectsInvalidOptionsAndEnv) {
  Fixture f(makePaperDataflow());
  EXPECT_THROW(HeuristicScheduler(f.env(), Strategy::Local,
                                  SchedulerSpec::Mode::Adaptive,
                                  {.alternate_period = 0}),
               PreconditionError);
  SchedulerEnv env = f.env();
  env.dataflow = nullptr;
  EXPECT_THROW(HeuristicScheduler(env, Strategy::Local), PreconditionError);
  EXPECT_THROW(
      HeuristicScheduler(f.env(), Strategy::Local).deploy(-1.0),
      PreconditionError);
}

class DeployRateSweepTest
    : public ::testing::TestWithParam<std::tuple<Strategy, double>> {};

TEST_P(DeployRateSweepTest, PlannedOmegaMeetsTarget) {
  const auto [strategy, rate] = GetParam();
  Fixture f(makePaperDataflow());
  HeuristicScheduler sched(f.env(), strategy);
  const Deployment dep = sched.deploy(rate);
  ResourceAllocator probe(f.df, f.cloud, 0.7);
  const auto proj = projectThroughput(
      f.df, dep, rate, probe.allocatedPower(ratedCorePowerFn(f.cloud)));
  EXPECT_GE(proj.omega, 0.7 - 1e-9);
  // Every active VM actually hosts something after deployment cleanup.
  for (const VmId id : f.cloud.activeVms()) {
    EXPECT_GT(f.cloud.instance(id).allocatedCoreCount(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndRates, DeployRateSweepTest,
    ::testing::Combine(::testing::Values(Strategy::Local, Strategy::Global),
                       ::testing::Values(2.0, 5.0, 10.0, 20.0, 35.0,
                                         50.0)));

}  // namespace
}  // namespace dds

// The crash family of FaultPlan: seeded per-VM lifetimes and the crash
// procedure (FailureInjector.*), plus engine-level recovery under crashes
// (FaultTolerance.*).
#include <gtest/gtest.h>

#include "dds/faults/fault_plan.hpp"

#include "dds/common/stats.hpp"
#include "dds/core/engine.hpp"
#include "dds/dataflow/standard_graphs.hpp"

namespace dds {
namespace {

TEST(FailureInjector, DisabledMeansImmortalVms) {
  const FaultPlan inj(42, {}, {});
  EXPECT_FALSE(FaultConfig{}.crashesEnabled());
  EXPECT_TRUE(std::isinf(inj.deathTime(VmId(0), 0.0)));
  CloudProvider cloud(awsCatalog2013());
  (void)cloud.acquire(ResourceClassId(0), 0.0);
  EXPECT_TRUE(inj.injectUpTo(cloud, 1e9).empty());
}

TEST(FailureInjector, DeathTimesAreDeterministic) {
  FaultConfig cfg;
  cfg.vm_mtbf_hours = 10.0;
  const FaultPlan a(7, cfg, {}), b(7, cfg, {});
  for (std::uint32_t v = 0; v < 10; ++v) {
    EXPECT_DOUBLE_EQ(a.deathTime(VmId(v), 100.0),
                     b.deathTime(VmId(v), 100.0));
  }
}

TEST(FailureInjector, DifferentVmsGetDifferentLifetimes) {
  FaultConfig cfg;
  cfg.vm_mtbf_hours = 10.0;
  const FaultPlan inj(42, cfg, {});
  EXPECT_NE(inj.deathTime(VmId(0), 0.0), inj.deathTime(VmId(1), 0.0));
}

TEST(FailureInjector, LifetimesAreExponentialWithMtbfMean) {
  FaultConfig cfg;
  cfg.vm_mtbf_hours = 5.0;
  const FaultPlan inj(99, cfg, {});
  RunningStats lifetimes;
  for (std::uint32_t v = 0; v < 5000; ++v) {
    lifetimes.add((inj.deathTime(VmId(v), 0.0)) / kSecondsPerHour);
  }
  EXPECT_NEAR(lifetimes.mean(), 5.0, 0.3);
  // Exponential: stddev == mean.
  EXPECT_NEAR(lifetimes.stddev(), 5.0, 0.5);
}

TEST(FailureInjector, DeathTimeIsIndependentOfQueryOrder) {
  FaultConfig cfg;
  cfg.vm_mtbf_hours = 7.0;
  const FaultPlan forward(21, cfg, {}), backward(21, cfg, {});
  std::vector<SimTime> expected;
  for (std::uint32_t v = 0; v < 20; ++v) {
    expected.push_back(forward.deathTime(VmId(v), 10.0 * v));
  }
  // A second injector queried in reverse (and twice over) agrees exactly:
  // the draw is a pure function of (seed, vm, t_start).
  for (std::uint32_t v = 20; v-- > 0;) {
    (void)backward.deathTime(VmId(v), 10.0 * v);
  }
  for (std::uint32_t v = 0; v < 20; ++v) {
    EXPECT_DOUBLE_EQ(backward.deathTime(VmId(v), 10.0 * v), expected[v]);
  }
}

TEST(FailureInjector, DeathTimeShiftsWithStart) {
  FaultConfig cfg;
  cfg.vm_mtbf_hours = 5.0;
  const FaultPlan inj(42, cfg, {});
  EXPECT_DOUBLE_EQ(inj.deathTime(VmId(3), 1000.0),
                   inj.deathTime(VmId(3), 0.0) + 1000.0);
}

TEST(FailureInjector, InjectCrashesDueVmsAndReportsLosses) {
  FaultConfig cfg;
  cfg.vm_mtbf_hours = 1.0;
  const FaultPlan inj(3, cfg, {});
  CloudProvider cloud(awsCatalog2013());
  const VmId vm = cloud.acquire(ResourceClassId(3), 0.0);  // 4 cores
  cloud.allocateCore(vm, PeId(0));
  cloud.allocateCore(vm, PeId(0));
  cloud.allocateCore(vm, PeId(1));
  // Give PE 0 a survivor core elsewhere.
  const VmId other = cloud.acquire(ResourceClassId(0), 0.0);
  cloud.allocateCore(other, PeId(0));

  const SimTime death = inj.deathTime(vm, 0.0);
  const auto events = inj.injectUpTo(cloud, death + 1.0);
  bool crashed_target = false;
  for (const auto& ev : events) {
    if (ev.vm != vm) continue;
    crashed_target = true;
    ASSERT_EQ(ev.losses.size(), 2u);
    for (const auto& loss : ev.losses) {
      if (loss.pe == PeId(0)) {
        EXPECT_NEAR(loss.fraction, 2.0 / 3.0, 1e-12);  // 2 of 3 cores
      } else {
        EXPECT_EQ(loss.pe, PeId(1));
        EXPECT_DOUBLE_EQ(loss.fraction, 1.0);  // its only core
      }
    }
  }
  EXPECT_TRUE(crashed_target);
  EXPECT_FALSE(cloud.instance(vm).isActive());
  // Billing stopped at the crash (still a started hour).
  EXPECT_DOUBLE_EQ(cloud.instance(vm).offTime(), death);
}

TEST(FailureInjector, NothingHappensBeforeDeathTime) {
  FaultConfig cfg;
  cfg.vm_mtbf_hours = 100.0;
  const FaultPlan inj(42, cfg, {});
  CloudProvider cloud(awsCatalog2013());
  const VmId vm = cloud.acquire(ResourceClassId(0), 0.0);
  const SimTime death = inj.deathTime(vm, 0.0);
  EXPECT_TRUE(inj.injectUpTo(cloud, death - 1.0).empty());
  EXPECT_TRUE(cloud.instance(vm).isActive());
}

TEST(FaultTolerance, AdaptiveRecoversFromCrashes) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg;
  cfg.horizon_s = 2.0 * kSecondsPerHour;
  cfg.workload.mean_rate = 10.0;
  cfg.faults.vm_mtbf_hours = 2.0;  // aggressive: every VM dies ~once per run
  const auto r = SimulationEngine(df, cfg).run(parseScheduler("global"));
  EXPECT_GT(r.vm_failures, 0);
  // Re-allocation keeps the application alive and near the constraint.
  EXPECT_GE(r.average_omega, 0.6);
}

TEST(FaultTolerance, StaticDeploymentBleedsUnderCrashes) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg;
  cfg.horizon_s = 4.0 * kSecondsPerHour;
  cfg.workload.mean_rate = 10.0;
  cfg.faults.vm_mtbf_hours = 2.0;
  const auto fixed =
      SimulationEngine(df, cfg).run(parseScheduler("global-static"));
  const auto adaptive =
      SimulationEngine(df, cfg).run(parseScheduler("global"));
  EXPECT_GT(fixed.vm_failures, 0);
  // A static deployment never replaces dead capacity: it ends the run far
  // below the adaptive policy.
  EXPECT_LT(fixed.run.intervals().back().omega,
            adaptive.run.intervals().back().omega);
  EXPECT_LT(fixed.average_omega, adaptive.average_omega);
}

TEST(FaultTolerance, FailureFreeRunsReportZero) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg;
  cfg.horizon_s = 30.0 * kSecondsPerMinute;
  cfg.workload.mean_rate = 5.0;
  const auto r = SimulationEngine(df, cfg).run(parseScheduler("global"));
  EXPECT_EQ(r.vm_failures, 0);
  EXPECT_DOUBLE_EQ(r.messages_lost, 0.0);
}

TEST(FaultTolerance, ConfigValidatesMtbf) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg;
  cfg.faults.vm_mtbf_hours = -1.0;
  EXPECT_THROW(SimulationEngine(df, cfg), PreconditionError);
}

}  // namespace
}  // namespace dds

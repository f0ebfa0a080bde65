// Closed-loop runtime-adaptation tests: scheduler + simulator wired by
// hand (no engine), driving multi-interval scenarios that exercise the
// §7.2 machinery — rate surges, rate collapses, degraded VMs, alternate
// up/downgrades, hour-boundary VM releases and migration events.
#include <gtest/gtest.h>

#include "dds/dataflow/standard_graphs.hpp"
#include "dds/sched/heuristic_scheduler.hpp"
#include "dds/sim/rate_model.hpp"

namespace dds {
namespace {

class Loop {
 public:
  Loop(Dataflow graph, Strategy strategy, TraceReplayer replayer,
       HeuristicConfig config = {})
      : df_(std::move(graph)),
        cloud_(awsCatalog2013()),
        replayer_(std::move(replayer)),
        mon_(cloud_, replayer_),
        scheduler_(makeEnv(), strategy, SchedulerSpec::Mode::Adaptive,
                   config),
        deployment_(df_),
        simulator_(df_, cloud_, mon_, SimConfig{}) {}

  void deploy(double rate) { deployment_ = scheduler_.deploy(rate); }

  /// Run one interval at `rate`; returns the interval metrics.
  IntervalMetrics tick(double rate) {
    if (interval_ > 0) {
      ObservedState st;
      st.interval = interval_;
      st.now = static_cast<SimTime>(interval_) * 60.0;
      st.input_rate = last_rate_;
      st.average_omega =
          omega_sum_ / static_cast<double>(interval_);
      st.last_interval = &last_;
      for (const auto& ev : scheduler_.adapt(st, deployment_)) {
        simulator_.migrateBacklog(ev.pe, ev.backlog_fraction);
        ++migration_events_;
      }
    }
    last_ = simulator_.step(interval_, rate, deployment_);
    omega_sum_ += last_.omega;
    last_rate_ = rate;
    ++interval_;
    return last_;
  }

  const Dataflow& df() const { return df_; }
  CloudProvider& cloud() { return cloud_; }
  const Deployment& deployment() const { return deployment_; }
  int migrationEvents() const { return migration_events_; }
  double averageOmega() const {
    return interval_ > 0 ? omega_sum_ / static_cast<double>(interval_)
                         : 1.0;
  }

 private:
  SchedulerEnv makeEnv() {
    SchedulerEnv e;
    e.dataflow = &df_;
    e.cloud = &cloud_;
    e.monitor = &mon_;
    e.omega_target = 0.7;
    e.epsilon = 0.05;
    return e;
  }

  Dataflow df_;
  CloudProvider cloud_;
  TraceReplayer replayer_;
  MonitoringService mon_;
  HeuristicScheduler scheduler_;
  Deployment deployment_;
  DataflowSimulator simulator_;
  IntervalIndex interval_ = 0;
  double last_rate_ = 0.0;
  double omega_sum_ = 0.0;
  IntervalMetrics last_{};
  int migration_events_ = 0;
};

TEST(RuntimeAdaptation, RecoversFromRateSurge) {
  Loop loop(makePaperDataflow(), Strategy::Global, TraceReplayer::ideal());
  loop.deploy(5.0);
  for (int i = 0; i < 3; ++i) (void)loop.tick(5.0);
  // 4x surge: the first surged interval tanks, adaptation then recovers.
  const auto surged = loop.tick(20.0);
  EXPECT_LT(surged.omega, 0.9);
  IntervalMetrics last{};
  for (int i = 0; i < 6; ++i) last = loop.tick(20.0);
  EXPECT_GE(last.omega, 0.7 - 0.05);
}

TEST(RuntimeAdaptation, SheddsCoresAfterRateCollapse) {
  Loop loop(makePaperDataflow(), Strategy::Global, TraceReplayer::ideal());
  loop.deploy(40.0);
  (void)loop.tick(40.0);
  const int cores_at_peak = totalAllocatedCores(loop.cloud());
  for (int i = 0; i < 8; ++i) (void)loop.tick(4.0);
  EXPECT_LT(totalAllocatedCores(loop.cloud()), cores_at_peak);
}

TEST(RuntimeAdaptation, CollapseCanTriggerMigrations) {
  Loop loop(makePaperDataflow(), Strategy::Local, TraceReplayer::ideal());
  loop.deploy(50.0);
  (void)loop.tick(50.0);
  for (int i = 0; i < 10; ++i) (void)loop.tick(2.0);
  // Scale-in across many VMs should have moved at least one PE off a VM.
  EXPECT_GT(loop.migrationEvents(), 0);
}

TEST(RuntimeAdaptation, LocalReleasesEmptyVmsImmediately) {
  Loop loop(makePaperDataflow(), Strategy::Local, TraceReplayer::ideal());
  loop.deploy(50.0);
  (void)loop.tick(50.0);
  const auto vms_at_peak = loop.cloud().activeVms().size();
  for (int i = 0; i < 6; ++i) (void)loop.tick(2.0);
  EXPECT_LT(loop.cloud().activeVms().size(), vms_at_peak);
}

TEST(RuntimeAdaptation, GlobalHoldsEmptyVmsUntilHourBoundary) {
  Loop loop(makePaperDataflow(), Strategy::Global, TraceReplayer::ideal());
  loop.deploy(50.0);
  (void)loop.tick(50.0);
  const auto vms_at_peak = loop.cloud().activeVms().size();
  // Collapse the rate; within the first paid hour the global strategy
  // keeps emptied VMs around (they are already paid for).
  for (int i = 0; i < 10; ++i) (void)loop.tick(2.0);
  EXPECT_EQ(loop.cloud().activeVms().size(), vms_at_peak);
  // Cross the hour boundary: now the empties get released.
  for (int i = 0; i < 55; ++i) (void)loop.tick(2.0);
  EXPECT_LT(loop.cloud().activeVms().size(), vms_at_peak);
}

TEST(RuntimeAdaptation, DegradedInfrastructureTriggersScaleOut) {
  // All VMs run at 60% of rated speed; the deployment planned at rated
  // performance is short and adaptation must add cores.
  TraceReplayer degraded({PerfTrace::constant(0.6)},
                         {PerfTrace::constant(1.0)},
                         {PerfTrace::constant(1.0)}, 0);
  Loop loop(makePaperDataflow(), Strategy::Global, std::move(degraded));
  loop.deploy(10.0);
  const int planned = totalAllocatedCores(loop.cloud());
  IntervalMetrics last{};
  for (int i = 0; i < 8; ++i) last = loop.tick(10.0);
  EXPECT_GT(totalAllocatedCores(loop.cloud()), planned);
  EXPECT_GE(last.omega, 0.7 - 0.05);
}

TEST(RuntimeAdaptation, SurgeSwitchesToCheaperAlternates) {
  // React every interval for this scenario.
  Loop loop(makePaperDataflow(), Strategy::Local, TraceReplayer::ideal(),
            {.alternate_period = 1});
  loop.deploy(5.0);
  // Pin the expensive alternates, then surge so hard that the cheap ones
  // are the only way back to the constraint.
  for (int i = 0; i < 2; ++i) (void)loop.tick(5.0);
  (void)loop.tick(45.0);
  (void)loop.tick(45.0);
  const auto& dep = loop.deployment();
  const bool downgraded =
      dep.activeAlternate(PeId(1)) == AlternateId(1) ||
      dep.activeAlternate(PeId(2)) == AlternateId(1);
  EXPECT_TRUE(downgraded);
}

TEST(RuntimeAdaptation, SteadyStateHoldsConstraintOverAnHour) {
  Loop loop(makePaperDataflow(), Strategy::Global,
            TraceReplayer::futureGridLike(7));
  loop.deploy(15.0);
  for (int i = 0; i < 60; ++i) (void)loop.tick(15.0);
  EXPECT_GE(loop.averageOmega(), 0.7 - 0.05);
}

TEST(RuntimeAdaptation, EveryPeKeepsACoreThroughChurn) {
  Loop loop(makePaperDataflow(), Strategy::Global,
            TraceReplayer::futureGridLike(3));
  loop.deploy(10.0);
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    (void)loop.tick(rng.uniform(2.0, 40.0));
    for (std::uint32_t p = 0; p < 4; ++p) {
      ASSERT_GE(totalCores(loop.cloud(), PeId(p)), 1)
          << "interval " << i << " PE " << p;
    }
  }
}

}  // namespace
}  // namespace dds

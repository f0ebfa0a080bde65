#include "dds/monitor/probe_history.hpp"

#include <gtest/gtest.h>

#include "dds/common/stats.hpp"

#include "dds/core/engine.hpp"
#include "dds/dataflow/standard_graphs.hpp"

namespace dds {
namespace {

TEST(ProbeHistory, RejectsBadAlpha) {
  CloudProvider cloud(awsCatalog2013());
  TraceReplayer ideal = TraceReplayer::ideal();
  MonitoringService mon(cloud, ideal);
  EXPECT_THROW(ProbeHistory(mon, 0.0), PreconditionError);
  EXPECT_THROW(ProbeHistory(mon, 1.5), PreconditionError);
  EXPECT_NO_THROW(ProbeHistory(mon, 1.0));
}

TEST(ProbeHistory, UnprobedVmFallsBackToRated) {
  CloudProvider cloud(awsCatalog2013());
  TraceReplayer degraded({PerfTrace::constant(0.5)},
                         {PerfTrace::constant(1.0)},
                         {PerfTrace::constant(1.0)}, 0);
  MonitoringService mon(cloud, degraded);
  const VmId vm = cloud.acquire(ResourceClassId(1), 0.0);  // rated 2.0
  const ProbeHistory probes(mon, 0.3);
  EXPECT_DOUBLE_EQ(probes.smoothedCorePower(vm), 2.0);
}

TEST(ProbeHistory, FirstProbeSeedsWithObservation) {
  CloudProvider cloud(awsCatalog2013());
  TraceReplayer degraded({PerfTrace::constant(0.5)},
                         {PerfTrace::constant(1.0)},
                         {PerfTrace::constant(1.0)}, 0);
  MonitoringService mon(cloud, degraded);
  const VmId vm = cloud.acquire(ResourceClassId(1), 0.0);
  ProbeHistory probes(mon, 0.3);
  probes.probe(0.0);
  EXPECT_EQ(probes.probeCount(), 1u);
  EXPECT_DOUBLE_EQ(probes.smoothedCorePower(vm), 1.0);  // 2.0 * 0.5
}

TEST(ProbeHistory, EwmaMatchesManualRecurrence) {
  // The replayer assigns each VM a random replay window, so verify the
  // EWMA against a manually maintained recurrence over whatever the
  // observations actually are.
  CloudProvider cloud(awsCatalog2013());
  TraceReplayer replayer = TraceReplayer::futureGridLike(3);
  MonitoringService mon(cloud, replayer);
  const VmId vm = cloud.acquire(ResourceClassId(1), 0.0);
  const double alpha = 0.25;
  ProbeHistory probes(mon, alpha);

  probes.probe(0.0);
  double expected = mon.observedCorePower(vm, 0.0);
  EXPECT_DOUBLE_EQ(probes.smoothedCorePower(vm), expected);
  for (int i = 1; i <= 50; ++i) {
    const SimTime t = i * 300.0;
    probes.probe(t);
    expected = alpha * mon.observedCorePower(vm, t) +
               (1.0 - alpha) * expected;
    EXPECT_NEAR(probes.smoothedCorePower(vm), expected, 1e-12) << i;
  }
}

TEST(ProbeHistory, SmoothedIsLessVolatileThanRaw) {
  CloudProvider cloud(awsCatalog2013());
  TraceReplayer replayer = TraceReplayer::futureGridLike(9);
  MonitoringService mon(cloud, replayer);
  const VmId vm = cloud.acquire(ResourceClassId(0), 0.0);
  ProbeHistory probes(mon, 0.2);
  RunningStats raw, smooth;
  for (int i = 0; i < 500; ++i) {
    const SimTime t = i * 300.0;
    probes.probe(t);
    raw.add(mon.observedCorePower(vm, t));
    smooth.add(probes.smoothedCorePower(vm));
  }
  EXPECT_LT(smooth.stddev(), raw.stddev());
}

TEST(ProbeHistory, AlphaOneTracksRawObservations) {
  CloudProvider cloud(awsCatalog2013());
  TraceReplayer replayer = TraceReplayer::futureGridLike(5);
  MonitoringService mon(cloud, replayer);
  const VmId vm = cloud.acquire(ResourceClassId(0), 0.0);
  ProbeHistory probes(mon, 1.0);
  for (int i = 0; i < 10; ++i) {
    const SimTime t = i * 300.0;
    probes.probe(t);
    EXPECT_DOUBLE_EQ(probes.smoothedCorePower(vm),
                     mon.observedCorePower(vm, t));
  }
}

TEST(ProbeHistory, RejectsTimeGoingBackwards) {
  CloudProvider cloud(awsCatalog2013());
  TraceReplayer ideal = TraceReplayer::ideal();
  MonitoringService mon(cloud, ideal);
  ProbeHistory probes(mon, 0.5);
  probes.probe(100.0);
  EXPECT_THROW(probes.probe(50.0), PreconditionError);
}

TEST(ProbeHistory, SmoothedEngineRunStillMeetsConstraint) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg;
  cfg.horizon_s = kSecondsPerHour;
  cfg.workload.mean_rate = 10.0;
  cfg.workload.infra_variability = true;
  cfg.power_smoothing_alpha = 0.3;
  const auto r = SimulationEngine(df, cfg).run(parseScheduler("global"));
  EXPECT_TRUE(r.constraint_met) << r.average_omega;
}

TEST(ProbeHistory, EngineValidatesAlpha) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg;
  cfg.power_smoothing_alpha = 0.0;
  EXPECT_THROW(SimulationEngine(df, cfg), PreconditionError);
  cfg.power_smoothing_alpha = 1.2;
  EXPECT_THROW(SimulationEngine(df, cfg), PreconditionError);
}

}  // namespace
}  // namespace dds

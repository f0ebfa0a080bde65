#include "dds/sim/simulator.hpp"

#include <gtest/gtest.h>

#include "dds/dataflow/standard_graphs.hpp"

namespace dds {
namespace {

/// Two-stage pipeline: src (cost 0.1, sel 1) -> sink (cost 0.1, sel 1).
Dataflow makePipeline() {
  DataflowBuilder b("pipe");
  const PeId a = b.addPe("src", {{"src", 1.0, 0.1, 1.0}});
  const PeId c = b.addPe("sink", {{"sink", 1.0, 0.1, 1.0}});
  b.addEdge(a, c);
  return std::move(b).build();
}

struct Fixture {
  explicit Fixture(Dataflow graph) : df(std::move(graph)) {}
  Dataflow df;
  CloudProvider cloud{awsCatalog2013()};
  TraceReplayer replayer = TraceReplayer::ideal();
  MonitoringService mon{cloud, replayer};

  /// Allocate `n` cores of an m1.small (speed 1) on a fresh VM for `pe`.
  void giveSmallCores(PeId pe, int n) {
    for (int i = 0; i < n; ++i) {
      const VmId vm = cloud.acquire(ResourceClassId(0), 0.0);
      cloud.allocateCore(vm, pe);
    }
  }
};

TEST(Simulator, FullCapacityGivesUnitOmegaAndNoBacklog) {
  Fixture f(makePipeline());
  // cost 0.1 => one speed-1 core handles 10 msg/s; drive at 5.
  f.giveSmallCores(PeId(0), 1);
  f.giveSmallCores(PeId(1), 1);
  Deployment dep(f.df);
  DataflowSimulator sim(f.df, f.cloud, f.mon, {});
  const auto m = sim.step(0, 5.0, dep);
  EXPECT_NEAR(m.omega, 1.0, 1e-9);
  EXPECT_NEAR(sim.totalBacklog(), 0.0, 1e-9);
  EXPECT_NEAR(m.pe_stats[0].processed_rate, 5.0, 1e-9);
  EXPECT_NEAR(m.pe_stats[1].output_rate, 5.0, 1e-9);
}

TEST(Simulator, NoCoresMeansZeroThroughputAndGrowingBacklog) {
  Fixture f(makePipeline());
  Deployment dep(f.df);
  DataflowSimulator sim(f.df, f.cloud, f.mon, {});
  const auto m = sim.step(0, 5.0, dep);
  EXPECT_NEAR(m.omega, 0.0, 1e-9);
  // Source queues one interval of arrivals (5 msg/s * 60 s).
  EXPECT_NEAR(sim.backlog(PeId(0)), 300.0, 1e-9);
  const auto m2 = sim.step(1, 5.0, dep);
  EXPECT_NEAR(sim.backlog(PeId(0)), 600.0, 1e-9);
  EXPECT_NEAR(m2.omega, 0.0, 1e-9);
}

TEST(Simulator, BottleneckCapsDownstreamThroughput) {
  Fixture f(makePipeline());
  f.giveSmallCores(PeId(0), 1);  // 10 msg/s capacity
  f.giveSmallCores(PeId(1), 1);
  Deployment dep(f.df);
  DataflowSimulator sim(f.df, f.cloud, f.mon, {});
  // Drive at 20: the source can only process 10 => omega ~ 0.5.
  const auto m = sim.step(0, 20.0, dep);
  EXPECT_NEAR(m.omega, 0.5, 1e-9);
  EXPECT_NEAR(m.pe_stats[0].processed_rate, 10.0, 1e-9);
  EXPECT_NEAR(sim.backlog(PeId(0)), 10.0 * 60.0, 1e-9);
  EXPECT_NEAR(m.pe_stats[0].relative_throughput, 0.5, 1e-9);
}

TEST(Simulator, BacklogDrainsWhenLoadDrops) {
  Fixture f(makePipeline());
  f.giveSmallCores(PeId(0), 1);
  f.giveSmallCores(PeId(1), 2);
  Deployment dep(f.df);
  DataflowSimulator sim(f.df, f.cloud, f.mon, {});
  (void)sim.step(0, 20.0, dep);  // builds 600 msgs of backlog at src
  EXPECT_GT(sim.backlog(PeId(0)), 0.0);
  // Stop the input: the source now drains 10 msg/s * 60 s per interval.
  (void)sim.step(1, 0.0, dep);
  EXPECT_NEAR(sim.backlog(PeId(0)), 0.0, 1e-9);
}

TEST(Simulator, OmegaClampedToOneWhileDraining) {
  Fixture f(makePipeline());
  f.giveSmallCores(PeId(0), 2);
  f.giveSmallCores(PeId(1), 2);
  Deployment dep(f.df);
  DataflowSimulator sim(f.df, f.cloud, f.mon, {});
  (void)sim.step(0, 40.0, dep);  // overload builds backlog
  const auto m = sim.step(1, 1.0, dep);  // drain: output > expected
  EXPECT_LE(m.omega, 1.0);
  EXPECT_GT(m.omega, 0.99);
}

TEST(Simulator, GammaTracksActiveAlternates) {
  Fixture f(makePaperDataflow());
  Deployment dep(f.df);
  DataflowSimulator sim(f.df, f.cloud, f.mon, {});
  const auto m1 = sim.step(0, 0.0, dep);
  EXPECT_NEAR(m1.gamma, 1.0, 1e-12);  // all best-value alternates
  dep.setActiveAlternate(PeId(1), AlternateId(1));  // value 0.7
  dep.setActiveAlternate(PeId(2), AlternateId(1));  // value 0.6
  const auto m2 = sim.step(1, 0.0, dep);
  EXPECT_NEAR(m2.gamma, (1.0 + 0.7 + 0.6 + 1.0) / 4.0, 1e-12);
}

TEST(Simulator, SelectivityAmplifiesDownstreamLoad) {
  Fixture f(makeDiamondDataflow());
  // Give everything plenty of cores except nothing special: branch "b"
  // has selectivity 2 so the sink sees 3x the input rate.
  for (std::uint32_t i = 0; i < 4; ++i) f.giveSmallCores(PeId(i), 4);
  Deployment dep(f.df);
  DataflowSimulator sim(f.df, f.cloud, f.mon, {});
  const auto m = sim.step(0, 5.0, dep);
  EXPECT_NEAR(m.pe_stats[3].arrival_rate, 15.0, 1e-9);
  EXPECT_NEAR(m.omega, 1.0, 1e-9);
}

TEST(Simulator, ColocatedEdgeIgnoresBandwidth) {
  // A catalog with a crippled 0.1 Mbps NIC: remote edges can carry only
  // ~0.125 msg/s of 100 KB messages, but colocated PEs are unaffected.
  CloudProvider cloud(ResourceCatalog({{"tiny-nic", 4, 1.0, 0.1, 0.1}}));
  TraceReplayer replayer = TraceReplayer::ideal();
  MonitoringService mon(cloud, replayer);
  const Dataflow df = makePipeline();
  const VmId vm = cloud.acquire(ResourceClassId(0), 0.0);
  cloud.allocateCore(vm, PeId(0));
  cloud.allocateCore(vm, PeId(1));
  Deployment dep(df);
  DataflowSimulator sim(df, cloud, mon, {});
  const auto m = sim.step(0, 5.0, dep);
  EXPECT_NEAR(m.omega, 1.0, 1e-9);
}

TEST(Simulator, RemoteEdgeIsBandwidthCapped) {
  CloudProvider cloud(ResourceCatalog({{"tiny-nic", 1, 1.0, 0.1, 0.1}}));
  TraceReplayer replayer = TraceReplayer::ideal();
  MonitoringService mon(cloud, replayer);
  const Dataflow df = makePipeline();
  const VmId a = cloud.acquire(ResourceClassId(0), 0.0);
  const VmId b = cloud.acquire(ResourceClassId(0), 0.0);
  cloud.allocateCore(a, PeId(0));
  cloud.allocateCore(b, PeId(1));
  Deployment dep(df);
  DataflowSimulator sim(df, cloud, mon, {});
  const auto m = sim.step(0, 5.0, dep);
  // 0.1 Mbps / (100 KB * 8) = 0.125 msg/s reaches the sink.
  EXPECT_NEAR(m.pe_stats[1].arrival_rate, 0.125, 1e-6);
  EXPECT_LT(m.omega, 0.1);
}

TEST(Simulator, MigrationDelaysMessagesOneInterval) {
  Fixture f(makePipeline());
  f.giveSmallCores(PeId(0), 1);
  f.giveSmallCores(PeId(1), 1);
  Deployment dep(f.df);
  DataflowSimulator sim(f.df, f.cloud, f.mon, {});
  (void)sim.step(0, 20.0, dep);  // source backlog: 600 msgs
  const double before = sim.backlog(PeId(0));
  sim.migrateBacklog(PeId(0), 0.5);
  EXPECT_NEAR(sim.backlog(PeId(0)), before / 2.0, 1e-9);
  // The migrated half is back in the queue (arriving) at the next step:
  // with zero input, available = 300 (kept) + 300 (in transit) = 600, of
  // which 600 can be processed at 10 msg/s * 60 s = 600.
  const auto m = sim.step(1, 0.0, dep);
  EXPECT_NEAR(m.pe_stats[0].offered_rate, 10.0, 1e-9);
  EXPECT_NEAR(sim.backlog(PeId(0)), 0.0, 1e-9);
}

TEST(Simulator, MigrationFractionValidated) {
  Fixture f(makePipeline());
  DataflowSimulator sim(f.df, f.cloud, f.mon, {});
  EXPECT_THROW(sim.migrateBacklog(PeId(0), -0.1), PreconditionError);
  EXPECT_THROW(sim.migrateBacklog(PeId(0), 1.1), PreconditionError);
  EXPECT_THROW(sim.migrateBacklog(PeId(7), 0.5), PreconditionError);
}

// ---- migration downtime (pauseService) ----

TEST(Simulator, PauseConsumesServiceTimeFromTheIntervalFront) {
  Fixture f(makePipeline());
  f.giveSmallCores(PeId(0), 1);  // 10 msg/s capacity
  f.giveSmallCores(PeId(1), 1);
  Deployment dep(f.df);
  DataflowSimulator sim(f.df, f.cloud, f.mon, {});
  sim.pauseService(PeId(0), 30.0);
  EXPECT_DOUBLE_EQ(sim.pauseRemaining(PeId(0)), 30.0);
  // Arrivals 10 msg/s * 60 s = 600; only 30 s of service remain, so the
  // paused source processes 300 and queues the rest.
  const auto m = sim.step(0, 10.0, dep);
  EXPECT_NEAR(m.pe_stats[0].processed_rate, 5.0, 1e-9);
  EXPECT_NEAR(sim.backlog(PeId(0)), 300.0, 1e-9);
  EXPECT_DOUBLE_EQ(sim.pauseRemaining(PeId(0)), 0.0);
  // The unpaused sink is unaffected (it only sees fewer arrivals).
  EXPECT_NEAR(m.pe_stats[1].processed_rate, 5.0, 1e-9);
}

TEST(Simulator, PausesStackAndSpanIntervals) {
  Fixture f(makePipeline());
  f.giveSmallCores(PeId(0), 1);
  f.giveSmallCores(PeId(1), 1);
  Deployment dep(f.df);
  DataflowSimulator sim(f.df, f.cloud, f.mon, {});
  sim.pauseService(PeId(0), 50.0);
  sim.pauseService(PeId(0), 40.0);  // 90 s total: more than one interval
  const auto m0 = sim.step(0, 10.0, dep);
  EXPECT_NEAR(m0.pe_stats[0].processed_rate, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(sim.pauseRemaining(PeId(0)), 30.0);
  // Second interval: 30 s of pause left, 30 s of service at 10 msg/s
  // against 600 queued + 600 fresh arrivals.
  const auto m1 = sim.step(1, 10.0, dep);
  EXPECT_NEAR(m1.pe_stats[0].processed_rate, 5.0, 1e-9);
  EXPECT_NEAR(sim.backlog(PeId(0)), 900.0, 1e-9);
  EXPECT_DOUBLE_EQ(sim.pauseRemaining(PeId(0)), 0.0);
}

TEST(Simulator, ZeroPauseLeavesMetricsUntouched) {
  auto run = [](bool with_noop_pause) {
    Fixture f(makePipeline());
    f.giveSmallCores(PeId(0), 1);
    f.giveSmallCores(PeId(1), 1);
    Deployment dep(f.df);
    DataflowSimulator sim(f.df, f.cloud, f.mon, {});
    if (with_noop_pause) sim.pauseService(PeId(0), 0.0);
    return sim.step(0, 10.0, dep);
  };
  const auto a = run(false);
  const auto b = run(true);
  EXPECT_DOUBLE_EQ(a.omega, b.omega);
  for (std::size_t i = 0; i < a.pe_stats.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.pe_stats[i].processed_rate,
                     b.pe_stats[i].processed_rate);
  }
}

TEST(Simulator, PauseValidatesArguments) {
  Fixture f(makePipeline());
  DataflowSimulator sim(f.df, f.cloud, f.mon, {});
  EXPECT_THROW(sim.pauseService(PeId(7), 1.0), PreconditionError);
  EXPECT_THROW(sim.pauseService(PeId(0), -1.0), PreconditionError);
  EXPECT_THROW((void)sim.pauseRemaining(PeId(7)), PreconditionError);
}

TEST(Simulator, CostTracksCloudProvider) {
  Fixture f(makePipeline());
  f.giveSmallCores(PeId(0), 1);
  f.giveSmallCores(PeId(1), 1);
  Deployment dep(f.df);
  DataflowSimulator sim(f.df, f.cloud, f.mon, {});
  const auto m = sim.step(0, 1.0, dep);
  // Two m1.smalls, first (partial) hour each: $0.12.
  EXPECT_DOUBLE_EQ(m.cost_cumulative, 0.12);
  EXPECT_EQ(m.active_vms, 2);
  EXPECT_EQ(m.allocated_cores, 2);
}

TEST(Simulator, FasterCoresProcessProportionallyMore) {
  Fixture f(makePipeline());
  // m1.medium: one speed-2 core -> capacity 20 msg/s at cost 0.1.
  const VmId vm = f.cloud.acquire(ResourceClassId(1), 0.0);
  f.cloud.allocateCore(vm, PeId(0));
  f.giveSmallCores(PeId(1), 2);
  Deployment dep(f.df);
  DataflowSimulator sim(f.df, f.cloud, f.mon, {});
  const auto m = sim.step(0, 20.0, dep);
  EXPECT_NEAR(m.pe_stats[0].capacity_rate, 20.0, 1e-9);
  EXPECT_NEAR(m.omega, 1.0, 1e-9);
}

TEST(Simulator, DegradedCpuReducesCapacity) {
  CloudProvider cloud(awsCatalog2013());
  TraceReplayer degraded({PerfTrace::constant(0.5)},
                         {PerfTrace::constant(1.0)},
                         {PerfTrace::constant(1.0)}, 0);
  MonitoringService mon(cloud, degraded);
  const Dataflow df = makePipeline();
  for (std::uint32_t pe = 0; pe < 2; ++pe) {
    const VmId vm = cloud.acquire(ResourceClassId(0), 0.0);
    cloud.allocateCore(vm, PeId(pe));
  }
  Deployment dep(df);
  DataflowSimulator sim(df, cloud, mon, {});
  // Rated capacity would be 10 msg/s; at coefficient 0.5 it is 5.
  const auto m = sim.step(0, 10.0, dep);
  EXPECT_NEAR(m.pe_stats[0].capacity_rate, 5.0, 1e-9);
  EXPECT_NEAR(m.omega, 0.5, 1e-9);
}

TEST(Simulator, StepValidatesArguments) {
  Fixture f(makePipeline());
  Deployment dep(f.df);
  DataflowSimulator sim(f.df, f.cloud, f.mon, {});
  EXPECT_THROW((void)sim.step(0, -1.0, dep), PreconditionError);
  const Dataflow other = makeChainDataflow(3, 1);
  Deployment wrong(other);
  EXPECT_THROW((void)sim.step(0, 1.0, wrong), PreconditionError);
}

TEST(Simulator, ConfigValidation) {
  Fixture f(makePipeline());
  SimConfig bad;
  bad.msg_size_bytes = 0.0;
  EXPECT_THROW(DataflowSimulator(f.df, f.cloud, f.mon, bad),
               PreconditionError);
  bad = {};
  bad.interval_s = 0.0;
  EXPECT_THROW(DataflowSimulator(f.df, f.cloud, f.mon, bad),
               PreconditionError);
}

class OmegaRangeTest : public ::testing::TestWithParam<double> {};

TEST_P(OmegaRangeTest, OmegaAlwaysInUnitInterval) {
  Fixture f(makePaperDataflow());
  // Deliberately unbalanced allocation.
  f.giveSmallCores(PeId(0), 1);
  f.giveSmallCores(PeId(1), 2);
  f.giveSmallCores(PeId(3), 1);
  Deployment dep(f.df);
  DataflowSimulator sim(f.df, f.cloud, f.mon, {});
  for (IntervalIndex i = 0; i < 10; ++i) {
    const auto m = sim.step(i, GetParam(), dep);
    EXPECT_GE(m.omega, 0.0);
    EXPECT_LE(m.omega, 1.0);
    EXPECT_GT(m.gamma, 0.0);
    EXPECT_LE(m.gamma, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, OmegaRangeTest,
                         ::testing::Values(0.0, 2.0, 5.0, 20.0, 50.0));

}  // namespace
}  // namespace dds

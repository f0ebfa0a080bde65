#include "dds/eventsim/event_simulator.hpp"

#include <gtest/gtest.h>

#include "dds/common/stats.hpp"
#include "dds/core/engine.hpp"
#include "dds/dataflow/standard_graphs.hpp"
#include "dds/sim/simulator.hpp"
#include "stepping.hpp"

namespace dds {
namespace {

/// src (cost 0.1, sel 1) -> sink (cost 0.1, sel 1).
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

  void giveSmallCores(PeId pe, int n) {
    for (int i = 0; i < n; ++i) {
      const VmId vm = cloud.acquire(ResourceClassId(0), 0.0);
      cloud.allocateCore(vm, pe);
    }
  }
};

TEST(EventSim, ConfigValidation) {
  EventSimConfig c;
  c.msg_size_bytes = 0.0;
  EXPECT_THROW(c.validate(), PreconditionError);
  c = {};
  c.interval_s = 0.0;
  EXPECT_THROW(c.validate(), PreconditionError);
  c = {};
  c.max_latency_samples = 0;
  EXPECT_THROW(c.validate(), PreconditionError);
}

TEST(EventSim, DeliversEveryMessageWhenUnderloaded) {
  Fixture f(makePipeline());
  f.giveSmallCores(PeId(0), 1);  // 10 msg/s capacity each
  f.giveSmallCores(PeId(1), 1);
  EventSimulator sim(f.df, f.cloud, f.mon, EventSimConfig{});
  ConstantRate profile(2.0);  // well under capacity
  Deployment dep(f.df);
  const auto r = runFixed(sim, profile, dep);
  EXPECT_GT(r.messages_injected, 1000u);  // ~1200 over 600 s
  // Everything injected early enough gets delivered (tail may be in
  // flight at the horizon).
  EXPECT_GE(r.messages_delivered,
            static_cast<std::size_t>(0.98 *
                                     static_cast<double>(
                                         r.messages_injected)));
  EXPECT_GE(r.intervals.averageOmega(), 0.9);
}

TEST(EventSim, LatencyNearServiceTimeWhenIdle) {
  Fixture f(makePipeline());
  f.giveSmallCores(PeId(0), 2);
  f.giveSmallCores(PeId(1), 2);
  EventSimConfig cfg;
  cfg.poisson_arrivals = false;  // deterministic, no queueing noise
  EventSimulator sim(f.df, f.cloud, f.mon, cfg);
  ConstantRate profile(1.0);
  Deployment dep(f.df);
  const auto r = runFixed(sim, profile, dep);
  ASSERT_GT(r.messages_delivered, 0u);
  // Two stages of 0.1 s service on speed-1 cores: ~0.2 s end to end.
  EXPECT_NEAR(r.latency.mean(), 0.2, 0.05);
  EXPECT_NEAR(percentile(r.latency_samples, 50.0), 0.2, 0.05);
}

TEST(EventSim, OverloadQueuesAndLowersOmega) {
  Fixture f(makePipeline());
  f.giveSmallCores(PeId(0), 1);  // capacity 10 msg/s
  f.giveSmallCores(PeId(1), 1);
  EventSimulator sim(f.df, f.cloud, f.mon, EventSimConfig{});
  ConstantRate profile(20.0);  // 2x overload
  Deployment dep(f.df);
  const auto r = runFixed(sim, profile, dep);
  EXPECT_NEAR(r.intervals.averageOmega(), 0.5, 0.1);
  // The source's queue holds roughly the excess.
  const auto& final_stats = r.intervals.intervals().back().pe_stats[0];
  EXPECT_GT(final_stats.backlog_msgs, 100.0);
}

TEST(EventSim, LatencyGrowsUnderLoad) {
  Fixture light(makePipeline());
  light.giveSmallCores(PeId(0), 2);
  light.giveSmallCores(PeId(1), 2);
  EventSimulator sim_light(light.df, light.cloud, light.mon, EventSimConfig{});
  Deployment dep_light(light.df);
  const auto idle =
      runFixed(sim_light, ConstantRate(2.0), dep_light);

  Fixture heavy(makePipeline());
  heavy.giveSmallCores(PeId(0), 2);
  heavy.giveSmallCores(PeId(1), 2);
  EventSimulator sim_heavy(heavy.df, heavy.cloud, heavy.mon, EventSimConfig{});
  Deployment dep_heavy(heavy.df);
  // 95% utilization: queueing delay dominates.
  const auto busy =
      runFixed(sim_heavy, ConstantRate(19.0), dep_heavy);

  EXPECT_GT(busy.latency.mean(), 2.0 * idle.latency.mean());
}

TEST(EventSim, SelectivityAmplifiesDownstreamArrivals) {
  Fixture f(makeDiamondDataflow());  // branch "b" has selectivity 2
  for (std::uint32_t i = 0; i < 4; ++i) f.giveSmallCores(PeId(i), 4);
  EventSimConfig cfg;
  cfg.poisson_arrivals = false;
  EventSimulator sim(f.df, f.cloud, f.mon, cfg);
  Deployment dep(f.df);
  const auto r = runFixed(sim, ConstantRate(4.0), dep);
  // Sink sees src copies via a (4/s) and doubled via b (8/s) = 12/s.
  const auto& last = r.intervals.intervals().back();
  EXPECT_NEAR(last.pe_stats[3].arrival_rate, 12.0, 1.0);
}

TEST(EventSim, FractionalSelectivityAveragesOut) {
  DataflowBuilder b("half");
  const PeId a = b.addPe("a", {{"a", 1.0, 0.05, 0.5}});
  const PeId c = b.addPe("b", {{"b", 1.0, 0.05, 1.0}});
  b.addEdge(a, c);
  Fixture f(std::move(b).build());
  f.giveSmallCores(PeId(0), 1);
  f.giveSmallCores(PeId(1), 1);
  EventSimConfig cfg;
  cfg.poisson_arrivals = false;
  EventSimulator sim(f.df, f.cloud, f.mon, cfg);
  Deployment dep(f.df);
  const auto r = runFixed(sim, ConstantRate(8.0), dep);
  const auto& last = r.intervals.intervals().back();
  EXPECT_NEAR(last.pe_stats[1].arrival_rate, 4.0, 0.5);
}

TEST(EventSim, DeterministicForSeed) {
  Fixture f1(makePipeline());
  f1.giveSmallCores(PeId(0), 1);
  f1.giveSmallCores(PeId(1), 1);
  Fixture f2(makePipeline());
  f2.giveSmallCores(PeId(0), 1);
  f2.giveSmallCores(PeId(1), 1);
  EventSimulator a(f1.df, f1.cloud, f1.mon, EventSimConfig{});
  EventSimulator b(f2.df, f2.cloud, f2.mon, EventSimConfig{});
  Deployment d1(f1.df), d2(f2.df);
  const auto ra = runFixed(a, ConstantRate(5.0), d1);
  const auto rb = runFixed(b, ConstantRate(5.0), d2);
  EXPECT_EQ(ra.messages_injected, rb.messages_injected);
  EXPECT_EQ(ra.messages_delivered, rb.messages_delivered);
  EXPECT_DOUBLE_EQ(ra.latency.mean(), rb.latency.mean());
}

TEST(EventSim, NoCoresMeansNothingDelivered) {
  Fixture f(makePipeline());
  EventSimulator sim(f.df, f.cloud, f.mon, EventSimConfig{});
  Deployment dep(f.df);
  const auto r = runFixed(sim, ConstantRate(5.0), dep);
  EXPECT_EQ(r.messages_delivered, 0u);
  EXPECT_GT(r.messages_injected, 0u);
  EXPECT_NEAR(r.intervals.averageOmega(), 0.0, 1e-9);
}

TEST(EventSim, CrossValidatesWithFluidSimulator) {
  // Same deployment, same constant rate: the fluid and event simulators
  // must agree on average throughput within a few percent.
  for (const double rate : {4.0, 10.0, 16.0}) {
    Fixture fe(makePipeline());
    fe.giveSmallCores(PeId(0), 1);
    fe.giveSmallCores(PeId(1), 1);
    EventSimConfig cfg;
    cfg.poisson_arrivals = false;
    EventSimulator esim(fe.df, fe.cloud, fe.mon, cfg);
    Deployment edep(fe.df);
    const auto er = runFixed(esim, ConstantRate(rate), edep, 1200.0);

    Fixture ff(makePipeline());
    ff.giveSmallCores(PeId(0), 1);
    ff.giveSmallCores(PeId(1), 1);
    DataflowSimulator fsim(ff.df, ff.cloud, ff.mon, {});
    Deployment fdep(ff.df);
    double omega_sum = 0.0;
    for (IntervalIndex i = 0; i < 20; ++i) {
      omega_sum += fsim.step(i, rate, fdep).omega;
    }
    const double fluid_omega = omega_sum / 20.0;
    EXPECT_NEAR(er.intervals.averageOmega(), fluid_omega, 0.08)
        << "rate " << rate;
  }
}

TEST(EventSim, AdaptiveSchedulerScalesOutUnderSurge) {
  // Deployed for 2 msg/s, then 6 msg/s for minutes 40-50: adaptation
  // must add cores and restore Omega before the surge ends, which the
  // same deployment held static does not.
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg;
  cfg.horizon_s = 100.0 * kSecondsPerMinute;
  cfg.workload.mean_rate = 2.0;
  cfg.workload.profile = ProfileKind::Spike;
  cfg.backend = SimBackend::Event;
  const SimulationEngine engine(df, cfg);
  const auto adaptive = engine.run(parseScheduler("global"));
  const auto fixed = engine.run(parseScheduler("global-static"));
  const IntervalMetrics& surge_end = adaptive.run.intervals().at(49);
  ASSERT_EQ(surge_end.input_rate, 6.0);
  EXPECT_GT(adaptive.peak_cores,
            adaptive.run.intervals().front().allocated_cores);
  EXPECT_GT(surge_end.omega, 0.6);
  EXPECT_LT(fixed.run.intervals().at(49).omega, 0.6);
}

// --- the stepper seam SimulationEngine drives ---
// Deterministic 1 msg/s arrivals land at t0 + 1, ..., t0 + 59: 59 per
// 60 s interval.

TEST(EventSim, MigratedMessagesReturnOneStepLater) {
  Fixture f(makePipeline());  // no cores: every arrival stays queued
  EventSimConfig cfg;
  cfg.poisson_arrivals = false;
  EventSimulator sim(f.df, f.cloud, f.mon, cfg);
  const Deployment dep(f.df);
  const double first = sim.step(0, 1.0, dep).pe_stats[0].backlog_msgs;
  ASSERT_EQ(first, 59.0);
  sim.migrateBacklog(PeId(0), 1.0);
  // In transit for the whole next interval, back at the start of the one
  // after it.
  EXPECT_EQ(sim.step(1, 1.0, dep).pe_stats[0].backlog_msgs, 59.0);
  EXPECT_EQ(sim.step(2, 1.0, dep).pe_stats[0].backlog_msgs, 3.0 * 59.0);
}

TEST(EventSim, DropBacklogLosesQueuedMessages) {
  Fixture f(makePipeline());
  EventSimConfig cfg;
  cfg.poisson_arrivals = false;
  EventSimulator sim(f.df, f.cloud, f.mon, cfg);
  const Deployment dep(f.df);
  (void)sim.step(0, 1.0, dep);
  EXPECT_EQ(sim.dropBacklog(PeId(0), 0.5), 30.0);  // round(59 / 2)
  EXPECT_EQ(sim.dropBacklog(PeId(0), 1.0), 29.0);
  EXPECT_EQ(sim.dropBacklog(PeId(1), 1.0), 0.0);
  EXPECT_EQ(sim.step(1, 1.0, dep).pe_stats[0].backlog_msgs, 59.0);
}

TEST(EventSim, PauseServiceHoldsDispatchUntilItEnds) {
  Fixture f(makePipeline());
  f.giveSmallCores(PeId(0), 2);  // 20 msg/s: never the bottleneck
  f.giveSmallCores(PeId(1), 2);
  EventSimConfig cfg;
  cfg.poisson_arrivals = false;
  EventSimulator sim(f.df, f.cloud, f.mon, cfg);
  const Deployment dep(f.df);
  EXPECT_EQ(sim.step(0, 1.0, dep).pe_stats[0].backlog_msgs, 0.0);
  sim.pauseService(PeId(0), 120.0);  // [60 s, 180 s)
  sim.pauseService(PeId(0), 30.0);   // overlaps: extends nothing
  for (const IntervalIndex i : {1, 2}) {
    const PeIntervalStats ps = sim.step(i, 1.0, dep).pe_stats[0];
    EXPECT_EQ(ps.processed_rate, 0.0) << "interval " << i;
    EXPECT_EQ(ps.backlog_msgs, 59.0 * static_cast<double>(i));
  }
  // The pause lapsed at the interval start: the held queue drains.
  const PeIntervalStats ps = sim.step(3, 1.0, dep).pe_stats[0];
  EXPECT_NEAR(ps.processed_rate * cfg.interval_s, 3.0 * 59.0, 1e-9);
  EXPECT_EQ(ps.backlog_msgs, 0.0);
}

TEST(EventSim, RemoteEdgesAddTransferDelay) {
  // Same pipeline, same cores: colocated vs split across two VMs. The
  // split deployment pays latency + serialization per hop.
  const Dataflow df = makePipeline();
  auto meanLatency = [&df](bool colocate) {
    CloudProvider cloud(awsCatalog2013());
    TraceReplayer replayer = TraceReplayer::ideal();
    MonitoringService mon(cloud, replayer);
    if (colocate) {
      const VmId vm = cloud.acquire(ResourceClassId(3), 0.0);
      cloud.allocateCore(vm, PeId(0));
      cloud.allocateCore(vm, PeId(1));
    } else {
      const VmId a = cloud.acquire(ResourceClassId(1), 0.0);
      const VmId b = cloud.acquire(ResourceClassId(1), 0.0);
      cloud.allocateCore(a, PeId(0));
      cloud.allocateCore(b, PeId(1));
    }
    EventSimConfig cfg;
    cfg.poisson_arrivals = false;
    EventSimulator sim(df, cloud, mon, cfg);
    Deployment dep(df);
    return runFixed(sim, ConstantRate(2.0), dep).latency.mean();
  };
  const double colocated = meanLatency(true);
  const double split = meanLatency(false);
  // 100 KB over 100 Mbps = 8 ms plus 1 ms latency per remote hop.
  EXPECT_GT(split, colocated + 0.005);
  EXPECT_LT(split, colocated + 0.05);
}

TEST(EventSim, QueueWaitBreakdownFindsBottleneck) {
  const Dataflow df = makePipeline();
  Fixture f(makePipeline());
  f.giveSmallCores(PeId(0), 4);  // ample
  f.giveSmallCores(PeId(1), 1);  // the bottleneck: 10 msg/s capacity
  EventSimulator sim(f.df, f.cloud, f.mon, EventSimConfig{});
  Deployment dep(f.df);
  const auto r = runFixed(sim, ConstantRate(15.0), dep);
  ASSERT_EQ(r.pe_queue_wait.size(), 2u);
  EXPECT_GT(r.pe_queue_wait[1].mean(), r.pe_queue_wait[0].mean());
}

TEST(EventSim, QueueWaitNearZeroWhenIdle) {
  Fixture f(makePipeline());
  f.giveSmallCores(PeId(0), 2);
  f.giveSmallCores(PeId(1), 2);
  EventSimConfig cfg;
  cfg.poisson_arrivals = false;
  EventSimulator sim(f.df, f.cloud, f.mon, cfg);
  Deployment dep(f.df);
  const auto r = runFixed(sim, ConstantRate(1.0), dep);
  EXPECT_LT(r.pe_queue_wait[0].mean(), 0.01);
}

class EventSimRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(EventSimRateSweep, OmegaMatchesCapacityRatio) {
  Fixture f(makePipeline());
  f.giveSmallCores(PeId(0), 1);  // 10 msg/s
  f.giveSmallCores(PeId(1), 1);
  EventSimConfig cfg;
  cfg.poisson_arrivals = false;
  EventSimulator sim(f.df, f.cloud, f.mon, cfg);
  Deployment dep(f.df);
  const double rate = GetParam();
  const auto r = runFixed(sim, ConstantRate(rate), dep, 1200.0);
  const double expected_omega = std::min(1.0, 10.0 / rate);
  EXPECT_NEAR(r.intervals.averageOmega(), expected_omega, 0.08)
      << "rate " << rate;
}

INSTANTIATE_TEST_SUITE_P(Rates, EventSimRateSweep,
                         ::testing::Values(2.0, 5.0, 9.0, 12.0, 20.0,
                                           40.0));

}  // namespace
}  // namespace dds

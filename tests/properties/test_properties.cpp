// Property-based sweeps over randomized graphs, rates and seeds, checking
// the invariants the rest of the system relies on:
//  * conservation: a simulator step never processes more than was offered,
//    and backlog accounts exactly for the difference;
//  * packing safety: repacking preserves every PE's core count and rated
//    power, and never over-commits a VM's cores;
//  * convergence: incremental allocation terminates and meets its target
//    on arbitrary layered DAGs;
//  * determinism: deployments and whole runs are bit-reproducible.
#include <gtest/gtest.h>

#include "dds/core/engine.hpp"
#include "dds/dataflow/standard_graphs.hpp"
#include "dds/sched/heuristic_scheduler.hpp"
#include "dds/sim/rate_model.hpp"

namespace dds {
namespace {

class RandomGraphTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Dataflow randomGraph() {
    Rng rng(GetParam());
    const auto layers =
        static_cast<std::size_t>(3 + rng.uniformInt(0, 3));
    const auto width = static_cast<std::size_t>(1 + rng.uniformInt(0, 3));
    const auto alts = static_cast<std::size_t>(1 + rng.uniformInt(0, 2));
    return makeLayeredDataflow(layers, width, alts, rng);
  }
};

TEST_P(RandomGraphTest, SimulatorConservesMessages) {
  const Dataflow df = randomGraph();
  CloudProvider cloud(awsCatalog2013());
  TraceReplayer replayer = TraceReplayer::futureGridLike(GetParam());
  MonitoringService mon(cloud, replayer);
  SchedulerEnv env;
  env.dataflow = &df;
  env.cloud = &cloud;
  env.monitor = &mon;
  HeuristicScheduler sched(env, Strategy::Global);
  Deployment dep = sched.deploy(8.0);

  SimConfig cfg;
  DataflowSimulator sim(df, cloud, mon, cfg);
  Rng rate_rng(GetParam() ^ 0xfeed);
  for (IntervalIndex i = 0; i < 20; ++i) {
    const double rate = rate_rng.uniform(0.0, 20.0);
    const auto m = sim.step(i, rate, dep);
    for (std::size_t p = 0; p < df.peCount(); ++p) {
      const auto& st = m.pe_stats[p];
      // Processed never exceeds offered or capacity.
      EXPECT_LE(st.processed_rate, st.offered_rate + 1e-9);
      EXPECT_LE(st.processed_rate, st.capacity_rate + 1e-9);
      // Backlog is exactly the unprocessed remainder of this interval.
      EXPECT_NEAR(st.backlog_msgs,
                  (st.offered_rate - st.processed_rate) * cfg.interval_s,
                  1e-6);
      EXPECT_GE(st.backlog_msgs, -1e-9);
    }
    EXPECT_GE(m.omega, 0.0);
    EXPECT_LE(m.omega, 1.0);
  }
}

TEST_P(RandomGraphTest, DeploymentIsDeterministic) {
  const Dataflow df = randomGraph();
  auto deployOnce = [&df](std::vector<int>& cores_out) {
    CloudProvider cloud(awsCatalog2013());
    TraceReplayer replayer = TraceReplayer::ideal();
    MonitoringService mon(cloud, replayer);
    SchedulerEnv env;
    env.dataflow = &df;
    env.cloud = &cloud;
    env.monitor = &mon;
    HeuristicScheduler sched(env, Strategy::Global);
    const Deployment dep = sched.deploy(10.0);
    std::vector<AlternateId> alts;
    for (std::size_t i = 0; i < df.peCount(); ++i) {
      const PeId id(static_cast<PeId::value_type>(i));
      alts.push_back(dep.activeAlternate(id));
      cores_out.push_back(totalCores(cloud, id));
    }
    return alts;
  };
  std::vector<int> cores_a, cores_b;
  const auto alts_a = deployOnce(cores_a);
  const auto alts_b = deployOnce(cores_b);
  EXPECT_EQ(alts_a, alts_b);
  EXPECT_EQ(cores_a, cores_b);
}

TEST_P(RandomGraphTest, IncrementalAllocationConvergesAndMeetsTarget) {
  const Dataflow df = randomGraph();
  CloudProvider cloud(awsCatalog2013());
  TraceReplayer replayer = TraceReplayer::ideal();
  MonitoringService mon(cloud, replayer);
  Deployment dep(df);
  ResourceAllocator alloc(df, cloud, 0.7);
  Rng rng(GetParam() ^ 0xabc);
  const double rate = rng.uniform(1.0, 40.0);
  alloc.ensureMinimumCores(0.0);
  alloc.scaleOut(dep, rate, ratedCorePowerFn(cloud), 0.0, Strategy::Global);
  const auto proj = projectThroughput(
      df, dep, rate, alloc.allocatedPower(ratedCorePowerFn(cloud)));
  EXPECT_GE(proj.omega, 0.7 - 1e-9) << "rate " << rate;
}

TEST_P(RandomGraphTest, RepackingPreservesCapacityAndCoreCounts) {
  const Dataflow df = randomGraph();
  CloudProvider cloud(awsCatalog2013());
  TraceReplayer replayer = TraceReplayer::ideal();
  MonitoringService mon(cloud, replayer);
  Deployment dep(df);
  ResourceAllocator alloc(df, cloud, 0.7);
  alloc.ensureMinimumCores(0.0);
  alloc.scaleOut(dep, 12.0, ratedCorePowerFn(cloud), 0.0, Strategy::Local);

  std::vector<int> cores_before;
  std::vector<double> power_before;
  for (std::size_t i = 0; i < df.peCount(); ++i) {
    const PeId id(static_cast<PeId::value_type>(i));
    cores_before.push_back(totalCores(cloud, id));
    power_before.push_back(ratedPowerOf(cloud, id));
  }
  alloc.repackFreeVms();
  for (std::size_t i = 0; i < df.peCount(); ++i) {
    const PeId id(static_cast<PeId::value_type>(i));
    EXPECT_EQ(totalCores(cloud, id), cores_before[i]) << "PE " << i;
    EXPECT_GE(ratedPowerOf(cloud, id), power_before[i] - 1e-9) << "PE " << i;
  }
  // No VM ever over-commits its cores.
  for (const VmId vm : cloud.activeVms()) {
    EXPECT_LE(cloud.instance(vm).allocatedCoreCount(),
              cloud.instance(vm).coreCount());
  }
}

TEST_P(RandomGraphTest, FullRunsAreReproducible) {
  const Dataflow df = randomGraph();
  ExperimentConfig cfg;
  cfg.horizon_s = 20.0 * kSecondsPerMinute;
  cfg.workload.mean_rate = 6.0;
  cfg.workload.profile = ProfileKind::RandomWalk;
  cfg.workload.infra_variability = true;
  cfg.seed = GetParam();
  const auto a = SimulationEngine(df, cfg).run(parseScheduler("local"));
  const auto b = SimulationEngine(df, cfg).run(parseScheduler("local"));
  ASSERT_EQ(a.run.intervals().size(), b.run.intervals().size());
  for (std::size_t i = 0; i < a.run.intervals().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.run.intervals()[i].omega, b.run.intervals()[i].omega);
    EXPECT_DOUBLE_EQ(a.run.intervals()[i].cost_cumulative,
                     b.run.intervals()[i].cost_cumulative);
  }
}

TEST_P(RandomGraphTest, GammaAlwaysMatchesActiveAlternates) {
  const Dataflow df = randomGraph();
  CloudProvider cloud(awsCatalog2013());
  TraceReplayer replayer = TraceReplayer::ideal();
  MonitoringService mon(cloud, replayer);
  Deployment dep(df);
  Rng rng(GetParam());
  // Randomize alternate choices.
  double expected_gamma = 0.0;
  for (const auto& pe : df.pes()) {
    const auto j = static_cast<AlternateId::value_type>(rng.uniformInt(
        0, static_cast<std::int64_t>(pe.alternateCount()) - 1));
    dep.setActiveAlternate(pe.id(), AlternateId(j));
    expected_gamma += pe.relativeValue(AlternateId(j));
  }
  expected_gamma /= static_cast<double>(df.peCount());
  DataflowSimulator sim(df, cloud, mon, {});
  const auto m = sim.step(0, 1.0, dep);
  EXPECT_NEAR(m.gamma, expected_gamma, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

}  // namespace
}  // namespace dds

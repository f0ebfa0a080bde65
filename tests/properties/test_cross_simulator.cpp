// Cross-simulator property sweeps: the fluid and event backends are two
// independent implementations of the same model. On random graphs, random
// deployments and random rates their steady-state throughput must agree —
// a strong mutual-consistency oracle neither implementation can satisfy
// by accident.
#include <gtest/gtest.h>

#include "dds/core/engine.hpp"
#include "dds/dataflow/standard_graphs.hpp"
#include "dds/eventsim/event_simulator.hpp"
#include "dds/sim/simulator.hpp"
#include "../eventsim/stepping.hpp"

namespace dds {
namespace {

class CrossSimTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossSimTest, FixedDeploymentThroughputAgrees) {
  Rng rng(GetParam());
  const auto layers = static_cast<std::size_t>(2 + rng.uniformInt(0, 2));
  const auto width = static_cast<std::size_t>(1 + rng.uniformInt(0, 2));
  const Dataflow df = makeLayeredDataflow(layers, width, 2, rng);
  const double rate = rng.uniform(2.0, 12.0);

  // A random (but identical) static allocation for both simulators:
  // 1-3 small cores per PE.
  std::vector<int> cores(df.peCount());
  for (auto& c : cores) c = static_cast<int>(rng.uniformInt(1, 3));

  auto allocate = [&df, &cores](CloudProvider& cloud) {
    for (std::size_t i = 0; i < df.peCount(); ++i) {
      for (int k = 0; k < cores[i]; ++k) {
        const VmId vm = cloud.acquire(ResourceClassId(0), 0.0);
        cloud.allocateCore(vm, PeId(static_cast<PeId::value_type>(i)));
      }
    }
  };

  // Fluid.
  CloudProvider fluid_cloud(awsCatalog2013());
  TraceReplayer fluid_replayer = TraceReplayer::ideal();
  MonitoringService fluid_mon(fluid_cloud, fluid_replayer);
  allocate(fluid_cloud);
  DataflowSimulator fsim(df, fluid_cloud, fluid_mon, {});
  Deployment fdep(df);
  double fluid_omega = 0.0;
  for (IntervalIndex i = 0; i < 20; ++i) {
    fluid_omega += fsim.step(i, rate, fdep).omega;
  }
  fluid_omega /= 20.0;

  // Event.
  CloudProvider ev_cloud(awsCatalog2013());
  TraceReplayer ev_replayer = TraceReplayer::ideal();
  MonitoringService ev_mon(ev_cloud, ev_replayer);
  allocate(ev_cloud);
  EventSimConfig cfg;
  cfg.poisson_arrivals = false;
  EventSimulator esim(df, ev_cloud, ev_mon, cfg);
  Deployment edep(df);
  const auto er = runFixed(esim, ConstantRate(rate), edep, 1200.0);

  EXPECT_NEAR(er.intervals.averageOmega(), fluid_omega, 0.12)
      << "graph " << df.name() << " rate " << rate;
}

TEST_P(CrossSimTest, EngineBackendsAgreeUnderAdaptation) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg;
  cfg.horizon_s = 30.0 * kSecondsPerMinute;
  cfg.workload.mean_rate = 4.0 + static_cast<double>(GetParam() % 5) * 3.0;
  cfg.seed = GetParam();
  cfg.backend = SimBackend::Fluid;
  const auto fluid =
      SimulationEngine(df, cfg).run(parseScheduler("global"));
  cfg.backend = SimBackend::Event;
  const auto event =
      SimulationEngine(df, cfg).run(parseScheduler("global"));
  // Adaptation closes the loop differently (message granularity, Poisson
  // noise), so the band is wider than the fixed-deployment case.
  EXPECT_NEAR(event.average_omega, fluid.average_omega, 0.18);
  EXPECT_EQ(event.constraint_met, true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossSimTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace dds

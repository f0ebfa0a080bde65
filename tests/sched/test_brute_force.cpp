#include "dds/sched/brute_force.hpp"

#include <gtest/gtest.h>

#include "dds/dataflow/standard_graphs.hpp"
#include "dds/sched/allocation.hpp"
#include "dds/sched/heuristic_scheduler.hpp"
#include "dds/sim/rate_model.hpp"

namespace dds {
namespace {

struct Fixture {
  explicit Fixture(Dataflow graph) : df(std::move(graph)) {}
  Dataflow df;
  CloudProvider cloud{awsCatalog2013()};
  TraceReplayer replayer = TraceReplayer::ideal();
  MonitoringService mon{cloud, replayer};

  /// Planners read sigma, T and the seed from the env; seed 1 is the
  /// one the pinned annealing plans were captured with.
  SchedulerEnv env(double sigma = 0.0, SimTime horizon_s = kSecondsPerHour,
                   std::uint64_t seed = 1) {
    SchedulerEnv e;
    e.sigma = sigma;
    e.horizon_s = horizon_s;
    e.seed = seed;
    e.dataflow = &df;
    e.cloud = &cloud;
    e.monitor = &mon;
    e.omega_target = 0.7;
    e.epsilon = 0.05;
    return e;
  }
};

TEST(BruteForce, DeploysFeasiblePlanOnPaperGraph) {
  Fixture f(makePaperDataflow());
  BruteForceScheduler sched(f.env(0.01, kSecondsPerHour));
  const Deployment dep = sched.deploy(5.0);
  EXPECT_GT(sched.plansExamined(), 0u);
  // Planned throughput meets the constraint at rated performance.
  ResourceAllocator probe(f.df, f.cloud, 0.7);
  const auto proj = projectThroughput(
      f.df, dep, 5.0, probe.allocatedPower(ratedCorePowerFn(f.cloud)));
  EXPECT_GE(proj.omega, 0.7 - 1e-6);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_GE(totalCores(f.cloud, PeId(i)), 1);
  }
}

TEST(BruteForce, PlannedThetaDominatesHeuristics) {
  // Brute force maximizes Theta = Gamma - sigma*cost exactly; under the
  // same no-variability assumptions no heuristic deployment can beat its
  // planned objective (the heuristics may well be *cheaper* — they pick
  // cheap alternates by value/cost ratio — but never better on Theta).
  const double rate = 5.0;
  const double sigma = 0.01;
  const Dataflow reference = makePaperDataflow();

  auto plannedTheta = [&](CloudProvider& cloud, const Deployment& dep) {
    double gamma = 0.0;
    for (const auto& pe : reference.pes()) {
      gamma += pe.relativeValue(dep.activeAlternate(pe.id()));
    }
    gamma /= static_cast<double>(reference.peCount());
    return gamma - sigma * cloud.accumulatedCost(kSecondsPerHour);
  };

  Fixture fb(makePaperDataflow());
  BruteForceScheduler brute(fb.env(sigma, kSecondsPerHour));
  const Deployment brute_dep = brute.deploy(rate);
  const double brute_theta = plannedTheta(fb.cloud, brute_dep);

  for (const auto strategy : {Strategy::Local, Strategy::Global}) {
    Fixture fh(makePaperDataflow());
    HeuristicScheduler heur(fh.env(), strategy);
    const Deployment heur_dep = heur.deploy(rate);
    EXPECT_GE(brute_theta, plannedTheta(fh.cloud, heur_dep) - 1e-9)
        << toString(strategy);
  }
}

TEST(BruteForce, ZeroSigmaMaximizesValue) {
  // With sigma = 0 cost is free, so the optimizer picks the best-value
  // alternates (gamma = 1).
  Fixture f(makePaperDataflow());
  BruteForceScheduler sched(f.env(0.0, kSecondsPerHour));
  const Deployment dep = sched.deploy(5.0);
  EXPECT_EQ(dep.activeAlternate(PeId(1)), AlternateId(0));
  EXPECT_EQ(dep.activeAlternate(PeId(2)), AlternateId(0));
}

TEST(BruteForce, HighSigmaPrefersCheapAlternates) {
  // When cost dominates the objective, the cheap/fast alternates win.
  Fixture f(makePaperDataflow());
  BruteForceScheduler sched(f.env(10.0, kSecondsPerHour));
  const Deployment dep = sched.deploy(5.0);
  EXPECT_EQ(dep.activeAlternate(PeId(1)), AlternateId(1));
  EXPECT_EQ(dep.activeAlternate(PeId(2)), AlternateId(1));
}

TEST(BruteForce, SearchSpaceCapThrows) {
  Fixture f(makePaperDataflow());
  BruteForceScheduler sched(f.env(0.01, kSecondsPerHour),
                            /*max_combinations=*/10);
  EXPECT_THROW((void)sched.deploy(50.0), SearchSpaceTooLarge);
}

TEST(BruteForce, WorksOnSinglePeGraph) {
  Fixture f(makeChainDataflow(1, 2));
  BruteForceScheduler sched(f.env(0.01, kSecondsPerHour));
  const Deployment dep = sched.deploy(4.0);
  EXPECT_GE(totalCores(f.cloud, PeId(0)), 1);
  (void)dep;
}

TEST(BruteForce, BillsForFullHorizon) {
  Fixture f(makePaperDataflow());
  BruteForceScheduler sched(f.env(0.001, 10.0 * kSecondsPerHour));
  (void)sched.deploy(5.0);
  const double one_hour = f.cloud.accumulatedCost(kSecondsPerHour);
  const double ten_hours = f.cloud.accumulatedCost(10.0 * kSecondsPerHour);
  EXPECT_NEAR(ten_hours, 10.0 * one_hour, 1e-9);
}

TEST(BruteForce, RejectsInvalidConstruction) {
  Fixture f(makePaperDataflow());
  EXPECT_THROW(BruteForceScheduler(f.env(-0.1, kSecondsPerHour)),
               PreconditionError);
  EXPECT_THROW(BruteForceScheduler(f.env(0.1, 0.0)), PreconditionError);
  EXPECT_THROW(BruteForceScheduler(f.env(0.1, kSecondsPerHour), 0),
               PreconditionError);
}

class BruteForceRateTest : public ::testing::TestWithParam<double> {};

TEST_P(BruteForceRateTest, FeasibleAcrossSmallRates) {
  Fixture f(makePaperDataflow());
  BruteForceScheduler sched(f.env(0.01, kSecondsPerHour));
  const Deployment dep = sched.deploy(GetParam());
  ResourceAllocator probe(f.df, f.cloud, 0.7);
  const auto proj = projectThroughput(
      f.df, dep, GetParam(),
      probe.allocatedPower(ratedCorePowerFn(f.cloud)));
  EXPECT_GE(proj.omega, 0.7 - 1e-6);
}

// Rates above ~5 msg/s blow past the search-space cap with the paper-
// calibrated costs — mirroring the paper, where brute force is only run
// for small graphs/rates.
INSTANTIATE_TEST_SUITE_P(Rates, BruteForceRateTest,
                         ::testing::Values(2.0, 3.0, 5.0));

}  // namespace
}  // namespace dds

#include "dds/sched/annealing_planner.hpp"

#include <gtest/gtest.h>

#include "dds/dataflow/standard_graphs.hpp"
#include "dds/sched/allocation.hpp"
#include "dds/sched/brute_force.hpp"
#include "dds/sched/static_planning.hpp"
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
    return e;
  }
};

TEST(StaticPlanning, TryAssignCoversDemandOrFails) {
  const auto catalog = awsCatalog2013();
  // One xlarge = 4 cores of speed 2 = 8 power.
  const std::vector<int> counts = {0, 0, 0, 1};
  const auto ok = static_planning::tryAssign(catalog, counts, {3.0, 4.0});
  ASSERT_TRUE(ok.has_value());
  // Demand 3 -> 2 cores, demand 4 -> 2 cores; exactly full.
  EXPECT_EQ((*ok)[0][3] + (*ok)[1][3], 4);
  EXPECT_FALSE(
      static_planning::tryAssign(catalog, counts, {3.0, 4.0, 2.0})
          .has_value());
}

TEST(StaticPlanning, EveryPeGetsACoreEvenAtZeroDemand) {
  const auto catalog = awsCatalog2013();
  const std::vector<int> counts = {2, 0, 0, 0};
  const auto ok = static_planning::tryAssign(catalog, counts, {0.0, 0.0});
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ((*ok)[0][0], 1);
  EXPECT_EQ((*ok)[1][0], 1);
}

TEST(StaticPlanning, MultisetCostSumsPrices) {
  const auto catalog = awsCatalog2013();
  // 2 smalls + 1 xlarge for 3 hours: (2*0.06 + 0.48) * 3.
  EXPECT_NEAR(static_planning::multisetCost(catalog, {2, 0, 0, 1}, 3.0),
              1.8, 1e-12);
}

TEST(Annealing, OptionsValidation) {
  AnnealingOptions bad;
  bad.iterations = 0;
  EXPECT_THROW(bad.validate(), PreconditionError);
  bad = {};
  bad.cooling = 1.0;
  EXPECT_THROW(bad.validate(), PreconditionError);
  bad = {};
  bad.initial_temperature = 0.0;
  EXPECT_THROW(bad.validate(), PreconditionError);
}

TEST(Annealing, ProducesFeasiblePlan) {
  Fixture f(makePaperDataflow());
  AnnealingScheduler sched(f.env(0.01, kSecondsPerHour));
  const Deployment dep = sched.deploy(5.0);
  EXPECT_TRUE(std::isfinite(sched.bestTheta()));
  // Every PE holds at least one core and the constraint-scaled demand is
  // covered at rated performance.
  ResourceAllocator probe(f.df, f.cloud, 0.7);
  const auto proj = projectThroughput(
      f.df, dep, 5.0, probe.allocatedPower(ratedCorePowerFn(f.cloud)));
  EXPECT_GE(proj.omega, 0.7 - 1e-6);
}

TEST(Annealing, DeterministicForSeed) {
  auto run = [] {
    Fixture f(makePaperDataflow());
    AnnealingScheduler sched(f.env(0.01, kSecondsPerHour, 99));
    (void)sched.deploy(5.0);
    return sched.bestTheta();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Annealing, ApproachesBruteForceOptimum) {
  // At a brute-force-tractable rate, annealing should land within a few
  // percent of the exhaustive optimum.
  const double rate = 5.0;
  const double sigma = 0.01;

  Fixture fb(makePaperDataflow());
  BruteForceScheduler brute(fb.env(sigma, kSecondsPerHour));
  const Deployment brute_dep = brute.deploy(rate);
  const double brute_cost = fb.cloud.accumulatedCost(kSecondsPerHour);

  Fixture fa(makePaperDataflow());
  AnnealingOptions opts;
  opts.iterations = 30'000;
  AnnealingScheduler annealing(fa.env(sigma, kSecondsPerHour), opts);
  (void)annealing.deploy(rate);

  // Brute force maximizes the same planned Theta the annealer reports.
  const double brute_theta =
      static_planning::deploymentGamma(fb.df, brute_dep) -
      sigma * brute_cost;
  EXPECT_GE(annealing.bestTheta(), brute_theta - 0.02);
  EXPECT_LE(annealing.bestTheta(), brute_theta + 1e-6);
}

TEST(Annealing, TractableWhereBruteForceIsNot) {
  // 50 msg/s blows the brute-force cap; annealing handles it in bounded
  // iterations.
  Fixture fb(makePaperDataflow());
  BruteForceScheduler brute(fb.env(0.01, kSecondsPerHour));
  EXPECT_THROW((void)brute.deploy(50.0), SearchSpaceTooLarge);

  Fixture fa(makePaperDataflow());
  AnnealingScheduler annealing(fa.env(0.01, kSecondsPerHour));
  const Deployment dep = annealing.deploy(50.0);
  ResourceAllocator probe(fa.df, fa.cloud, 0.7);
  const auto proj = projectThroughput(
      fa.df, dep, 50.0, probe.allocatedPower(ratedCorePowerFn(fa.cloud)));
  EXPECT_GE(proj.omega, 0.7 - 1e-6);
}

TEST(Annealing, RejectsInvalidConstruction) {
  Fixture f(makePaperDataflow());
  EXPECT_THROW(AnnealingScheduler(f.env(-1.0, kSecondsPerHour)),
               PreconditionError);
  EXPECT_THROW(AnnealingScheduler(f.env(0.1, 0.0)), PreconditionError);
}

}  // namespace
}  // namespace dds

#include "dds/core/engine.hpp"

#include <gtest/gtest.h>

#include "dds/dataflow/standard_graphs.hpp"

namespace dds {
namespace {

ExperimentConfig quickConfig() {
  ExperimentConfig cfg;
  cfg.horizon_s = 10.0 * kSecondsPerMinute;
  cfg.interval_s = 60.0;
  cfg.workload.mean_rate = 5.0;
  return cfg;
}

TEST(ExperimentConfig, ValidatesFields) {
  ExperimentConfig cfg = quickConfig();
  EXPECT_NO_THROW(cfg.validate());
  cfg.workload.mean_rate = 0.0;
  EXPECT_THROW(cfg.validate(), PreconditionError);
  cfg = quickConfig();
  cfg.interval_s = cfg.horizon_s * 2.0;
  EXPECT_THROW(cfg.validate(), PreconditionError);
  cfg = quickConfig();
  cfg.omega_target = 1.5;
  EXPECT_THROW(cfg.validate(), PreconditionError);
  cfg = quickConfig();
  cfg.heuristic.resource_period = 0;
  EXPECT_THROW(cfg.validate(), PreconditionError);
}

TEST(DeriveSigma, PositiveAndRateSensitive) {
  const Dataflow df = makePaperDataflow();
  const double lo = deriveSigma(df, 2.0, kSecondsPerHour);
  const double hi = deriveSigma(df, 50.0, kSecondsPerHour);
  EXPECT_GT(lo, 0.0);
  EXPECT_GT(hi, 0.0);
  // Higher rates come with a larger acceptable budget, so a dollar matters
  // less: sigma shrinks as the rate grows.
  EXPECT_LT(hi, lo);
}

TEST(DeriveSigma, HandlesNoDynamismGraphs) {
  const Dataflow df = makeDiamondDataflow();  // single-alternate PEs
  EXPECT_GT(deriveSigma(df, 5.0, kSecondsPerHour), 0.0);
}

TEST(Engine, RunProducesOneMetricPerInterval) {
  const Dataflow df = makePaperDataflow();
  const SimulationEngine engine(df, quickConfig());
  const auto r = engine.run(parseScheduler("global"));
  EXPECT_EQ(r.run.intervals().size(), 10u);
  EXPECT_EQ(r.scheduler_name, "global");
  EXPECT_GT(r.total_cost, 0.0);
  EXPECT_GT(r.average_gamma, 0.0);
  EXPECT_LE(r.average_gamma, 1.0);
  EXPECT_GT(r.average_omega, 0.0);
  EXPECT_LE(r.average_omega, 1.0);
  EXPECT_GE(r.peak_vms, 1);
  EXPECT_GE(r.peak_cores, 4);  // one core per PE minimum
}

TEST(Engine, SigmaOverrideWins) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg = quickConfig();
  cfg.sigma_override = 0.123;
  const SimulationEngine engine(df, cfg);
  EXPECT_DOUBLE_EQ(engine.sigma(), 0.123);
  const auto r = engine.run(parseScheduler("local-static"));
  EXPECT_DOUBLE_EQ(r.sigma, 0.123);
  EXPECT_NEAR(r.theta, r.average_gamma - 0.123 * r.total_cost, 1e-12);
}

// The two C++-only ablation knobs travel in ExperimentConfig::heuristic,
// so SimulationEngine runs them like any other knob (global, seed 2013,
// 4 h; the costs are bench_ablation_design_choices' rows).
TEST(Engine, AblationKnobsReachTheScheduler) {
  const auto globalRun = [](const Dataflow& df, const ExperimentConfig& cfg) {
    return SimulationEngine(df, cfg).run(parseScheduler("global"));
  };
  ExperimentConfig cfg;
  cfg.horizon_s = 4.0 * kSecondsPerHour;
  cfg.seed = 2013;
  cfg.workload.mean_rate = 20.0;

  // Repacking: a six-stage chain at a steady 20 msg/s on rated m1 VMs.
  const Dataflow chain = makeChainDataflow(6, 3);
  EXPECT_NEAR(globalRun(chain, cfg).total_cost, 4.32, 1e-9);
  ExperimentConfig no_repack = cfg;
  no_repack.heuristic.enable_repacking = false;
  EXPECT_NEAR(globalRun(chain, no_repack).total_cost, 5.76, 1e-9);

  // Release policy: the paper graph under a wave and FutureGrid
  // variability. The global strategy's default is the hour boundary.
  const Dataflow paper = makePaperDataflow();
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.workload.infra_variability = true;
  EXPECT_NEAR(globalRun(paper, cfg).total_cost, 82.56, 1e-9);
  cfg.heuristic.release_policy_override =
      ResourceAllocator::ReleasePolicy::AtHourBoundary;
  EXPECT_NEAR(globalRun(paper, cfg).total_cost, 82.56, 1e-9);
  cfg.heuristic.release_policy_override =
      ResourceAllocator::ReleasePolicy::Immediate;
  EXPECT_NEAR(globalRun(paper, cfg).total_cost, 96.00, 1e-9);
}

TEST(Engine, DeterministicForSameSeed) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg = quickConfig();
  cfg.workload.infra_variability = true;
  cfg.workload.profile = ProfileKind::RandomWalk;
  const SimulationEngine engine(df, cfg);
  const auto a = engine.run(parseScheduler("global"));
  const auto b = engine.run(parseScheduler("global"));
  EXPECT_DOUBLE_EQ(a.average_omega, b.average_omega);
  EXPECT_DOUBLE_EQ(a.total_cost, b.total_cost);
  EXPECT_DOUBLE_EQ(a.theta, b.theta);
}

TEST(Engine, SeedChangesVariableRuns) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg = quickConfig();
  cfg.workload.infra_variability = true;
  cfg.workload.profile = ProfileKind::RandomWalk;
  cfg.horizon_s = 30.0 * kSecondsPerMinute;
  const auto a = SimulationEngine(df, cfg).run(parseScheduler("local"));
  cfg.seed = 777;
  const auto b = SimulationEngine(df, cfg).run(parseScheduler("local"));
  // Different seeds -> different traces and walks -> different outcomes.
  EXPECT_NE(a.average_omega, b.average_omega);
}

TEST(Engine, AdaptiveMeetsConstraintUnderStableConditions) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg = quickConfig();
  cfg.horizon_s = kSecondsPerHour;
  for (const auto kind :
       {parseScheduler("local"), parseScheduler("global")}) {
    const auto r = SimulationEngine(df, cfg).run(kind);
    EXPECT_TRUE(r.constraint_met) << schedulerName(kind) << " omega "
                                  << r.average_omega;
  }
}

TEST(Engine, CostCumulativeIsNonDecreasing) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg = quickConfig();
  cfg.horizon_s = kSecondsPerHour;
  cfg.workload.profile = ProfileKind::PeriodicWave;
  const auto r = SimulationEngine(df, cfg).run(parseScheduler("global"));
  double prev = 0.0;
  for (const auto& m : r.run.intervals()) {
    EXPECT_GE(m.cost_cumulative, prev);
    prev = m.cost_cumulative;
  }
  EXPECT_NEAR(r.total_cost, prev, 1e-9);
}

TEST(Engine, BruteForceRunsOnSmallConfig) {
  const Dataflow df = makePaperDataflow();
  const auto r = SimulationEngine(df, quickConfig())
                     .run(parseScheduler("brute-force-static"));
  EXPECT_EQ(r.scheduler_name, "brute-force-static");
  EXPECT_TRUE(r.constraint_met);
}

/// A policy's position in allSchedulers(). Wrapped rather than a bare int
/// so the test IDs keep the byte-dump spelling ("4-byte object <00-00
/// 00-00>") they had when the parameter was an enum of the same order.
struct PolicyIndex {
  std::int32_t value;
};

class EngineAllKindsTest : public ::testing::TestWithParam<PolicyIndex> {};

TEST_P(EngineAllKindsTest, EveryKindCompletesAndReportsSaneMetrics) {
  const SchedulerSpec spec =
      allSchedulers()[static_cast<std::size_t>(GetParam().value)];
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg = quickConfig();
  cfg.workload.infra_variability = true;
  cfg.workload.profile = ProfileKind::PeriodicWave;
  const auto r = SimulationEngine(df, cfg).run(spec);
  EXPECT_EQ(r.scheduler_name, schedulerName(spec));
  EXPECT_GE(r.average_omega, 0.0);
  EXPECT_LE(r.average_omega, 1.0);
  EXPECT_GT(r.average_gamma, 0.0);
  EXPECT_LE(r.average_gamma, 1.0);
  EXPECT_GT(r.total_cost, 0.0);
}

// Every policy that runs without forecasting: all but the predictive pair.
INSTANTIATE_TEST_SUITE_P(
    Kinds, EngineAllKindsTest,
    ::testing::Values(PolicyIndex{0}, PolicyIndex{1}, PolicyIndex{2},
                      PolicyIndex{3}, PolicyIndex{4}, PolicyIndex{5},
                      PolicyIndex{6}, PolicyIndex{7}, PolicyIndex{8}));

}  // namespace
}  // namespace dds

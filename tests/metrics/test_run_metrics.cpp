#include "dds/metrics/run_metrics.hpp"

#include <gtest/gtest.h>

namespace dds {
namespace {

IntervalMetrics interval(IntervalIndex i, double omega, double gamma,
                         double cost) {
  IntervalMetrics m;
  m.index = i;
  m.omega = omega;
  m.gamma = gamma;
  m.cost_cumulative = cost;
  return m;
}

TEST(RunResult, EmptyAggregates) {
  const RunResult r;
  EXPECT_TRUE(r.empty());
  EXPECT_DOUBLE_EQ(r.averageOmega(), 0.0);
  EXPECT_DOUBLE_EQ(r.averageGamma(), 0.0);
}

TEST(RunResult, AveragesOverIntervals) {
  RunResult r;
  r.add(interval(0, 1.0, 0.8, 0.1));
  r.add(interval(1, 0.5, 1.0, 0.2));
  EXPECT_DOUBLE_EQ(r.averageOmega(), 0.75);
  EXPECT_DOUBLE_EQ(r.averageGamma(), 0.9);
}

TEST(RunResult, ConstraintCheckUsesTolerance) {
  RunResult r;
  r.add(interval(0, 0.67, 1.0, 0.0));
  EXPECT_TRUE(r.meetsThroughputConstraint(0.7, 0.05));
  EXPECT_FALSE(r.meetsThroughputConstraint(0.7, 0.01));
  EXPECT_TRUE(r.meetsThroughputConstraint(0.67, 0.0));
}

TEST(EquivalenceFactor, MatchesDefinition) {
  // sigma = (1.0 - 0.6) / (100 - 25) dollars^-1.
  EXPECT_DOUBLE_EQ(equivalenceFactor(1.0, 0.6, 100.0, 25.0), 0.4 / 75.0);
}

TEST(EquivalenceFactor, RejectsDegenerateRanges) {
  EXPECT_THROW((void)equivalenceFactor(1.0, 1.0, 100.0, 25.0),
               PreconditionError);
  EXPECT_THROW((void)equivalenceFactor(1.0, 0.5, 25.0, 25.0),
               PreconditionError);
  EXPECT_THROW((void)equivalenceFactor(0.5, 1.0, 100.0, 25.0),
               PreconditionError);
}

TEST(EvaluationAcceptableCost, AnchorsFromThePaper) {
  // §8.2: $4/hour at 2 msg/s, $100/hour at 50 msg/s.
  EXPECT_DOUBLE_EQ(evaluationAcceptableCost(2.0, kSecondsPerHour), 4.0);
  EXPECT_DOUBLE_EQ(evaluationAcceptableCost(50.0, kSecondsPerHour), 100.0);
}

TEST(EvaluationAcceptableCost, LinearInRateAndHorizon) {
  // Midpoint rate 26 msg/s -> $52/hour.
  EXPECT_DOUBLE_EQ(evaluationAcceptableCost(26.0, kSecondsPerHour), 52.0);
  // Ten hours costs ten times one hour.
  EXPECT_DOUBLE_EQ(evaluationAcceptableCost(10.0, 10 * kSecondsPerHour),
                   10.0 * evaluationAcceptableCost(10.0, kSecondsPerHour));
}

TEST(EvaluationAcceptableCost, RejectsBadInput) {
  EXPECT_THROW((void)evaluationAcceptableCost(0.0, 3600.0),
               PreconditionError);
  EXPECT_THROW((void)evaluationAcceptableCost(5.0, 0.0), PreconditionError);
}

RunResult omegaSeries(std::initializer_list<double> omegas) {
  RunResult r;
  IntervalIndex i = 0;
  for (const double w : omegas) r.add(interval(i++, w, w, 0.0));
  return r;
}

TEST(RecoveryStats, CleanRunHasNoEpisodes) {
  const auto s =
      computeRecoveryStats(omegaSeries({0.9, 0.8, 1.0}), 0.7, 60.0);
  EXPECT_EQ(s.violation_episodes, 0);
  EXPECT_EQ(s.unrecovered_episodes, 0);
  EXPECT_DOUBLE_EQ(s.mttr_s, 0.0);
  EXPECT_DOUBLE_EQ(s.longest_episode_s, 0.0);
  EXPECT_DOUBLE_EQ(s.availability, 1.0);
}

TEST(RecoveryStats, CountsMaximalViolationRuns) {
  // Two episodes: lengths 2 and 1 (recovered), availability 5/8.
  const auto s = computeRecoveryStats(
      omegaSeries({0.9, 0.5, 0.6, 0.8, 0.9, 0.3, 0.8, 0.9}), 0.7, 60.0);
  EXPECT_EQ(s.violation_episodes, 2);
  EXPECT_EQ(s.unrecovered_episodes, 0);
  EXPECT_DOUBLE_EQ(s.mttr_s, (2.0 + 1.0) / 2.0 * 60.0);
  EXPECT_DOUBLE_EQ(s.longest_episode_s, 2.0 * 60.0);
  EXPECT_DOUBLE_EQ(s.availability, 5.0 / 8.0);
}

TEST(RecoveryStats, OpenEpisodeAtHorizonCountsAsUnrecovered) {
  const auto s =
      computeRecoveryStats(omegaSeries({0.9, 0.9, 0.4, 0.4}), 0.7, 60.0);
  EXPECT_EQ(s.violation_episodes, 1);
  EXPECT_EQ(s.unrecovered_episodes, 1);
  // MTTR averages recovered episodes only — none here.
  EXPECT_DOUBLE_EQ(s.mttr_s, 0.0);
  EXPECT_DOUBLE_EQ(s.longest_episode_s, 2.0 * 60.0);
  EXPECT_DOUBLE_EQ(s.availability, 0.5);
}

TEST(RecoveryStats, EmptyRunIsFullyAvailable) {
  const auto s = computeRecoveryStats(RunResult{}, 0.7, 60.0);
  EXPECT_EQ(s.violation_episodes, 0);
  EXPECT_DOUBLE_EQ(s.availability, 1.0);
}

}  // namespace
}  // namespace dds

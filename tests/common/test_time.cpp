#include "dds/common/time.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "dds/common/error.hpp"

namespace dds {
namespace {

TEST(IntervalClock, CountsWholeIntervals) {
  const IntervalClock clock(60.0, 3600.0);
  EXPECT_EQ(clock.intervalCount(), 60);
}

TEST(IntervalClock, PartialTrailingIntervalIsDropped) {
  const IntervalClock clock(60.0, 3630.0);
  EXPECT_EQ(clock.intervalCount(), 60);
}

TEST(IntervalClock, AtLeastOneInterval) {
  const IntervalClock clock(60.0, 30.0);
  EXPECT_EQ(clock.intervalCount(), 1);
}

TEST(IntervalClock, StartEndMidAreConsistent) {
  const IntervalClock clock(120.0, 1200.0);
  EXPECT_DOUBLE_EQ(clock.startOf(0), 0.0);
  EXPECT_DOUBLE_EQ(clock.endOf(0), 120.0);
  EXPECT_DOUBLE_EQ(clock.midOf(0), 60.0);
  EXPECT_DOUBLE_EQ(clock.startOf(5), 600.0);
  EXPECT_DOUBLE_EQ(clock.endOf(5), 720.0);
}

TEST(IntervalClock, RejectsNonPositiveIntervalLength) {
  EXPECT_THROW(IntervalClock(0.0, 100.0), PreconditionError);
  EXPECT_THROW(IntervalClock(-5.0, 100.0), PreconditionError);
}

TEST(IntervalClock, RejectsNonPositiveHorizon) {
  EXPECT_THROW(IntervalClock(60.0, 0.0), PreconditionError);
}

TEST(IntervalClock, RejectsInfiniteOrOversizedHorizon) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(IntervalClock(60.0, kInf), PreconditionError);
  EXPECT_THROW(IntervalClock(60.0, 1e300), PreconditionError);
  EXPECT_THROW(IntervalClock(kInf, 3600.0), PreconditionError);
  const double cap = 60.0 * static_cast<double>(kMaxIntervalCount);
  EXPECT_EQ(IntervalClock(60.0, cap).intervalCount(), kMaxIntervalCount);
  EXPECT_THROW(IntervalClock(60.0, cap + 60.0), PreconditionError);
}

TEST(IntervalClock, RejectsNegativeIntervalIndex) {
  const IntervalClock clock(60.0, 3600.0);
  EXPECT_THROW((void)clock.startOf(-1), PreconditionError);
}

TEST(TimeConstants, HourAndMinute) {
  EXPECT_DOUBLE_EQ(kSecondsPerHour, 3600.0);
  EXPECT_DOUBLE_EQ(kSecondsPerMinute, 60.0);
}

class IntervalClockParamTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(IntervalClockParamTest, IntervalsTileTheHorizon) {
  const auto [interval, horizon] = GetParam();
  const IntervalClock clock(interval, horizon);
  const IntervalIndex n = clock.intervalCount();
  EXPECT_GE(n, 1);
  // Consecutive intervals abut exactly.
  for (IntervalIndex i = 0; i + 1 < n; ++i) {
    EXPECT_DOUBLE_EQ(clock.endOf(i), clock.startOf(i + 1));
  }
  // The tiling never overruns the horizon (except the single-interval
  // minimum case).
  if (n > 1) {
    EXPECT_LE(clock.endOf(n - 1), horizon + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, IntervalClockParamTest,
    ::testing::Values(std::pair{60.0, 3600.0}, std::pair{300.0, 36000.0},
                      std::pair{1.0, 10.0}, std::pair{7.0, 100.0},
                      std::pair{60.0, 59.0}));

}  // namespace
}  // namespace dds

#include "dds/workload/rate_profile.hpp"

#include <gtest/gtest.h>

#include "dds/common/stats.hpp"

namespace dds {
namespace {

TEST(ConstantRate, AlwaysTheSame) {
  const ConstantRate p(5.0);
  EXPECT_DOUBLE_EQ(p.rate(0.0), 5.0);
  EXPECT_DOUBLE_EQ(p.rate(1e6), 5.0);
  EXPECT_DOUBLE_EQ(p.meanRate(), 5.0);
}

TEST(ConstantRate, RejectsNegative) {
  EXPECT_THROW(ConstantRate(-1.0), PreconditionError);
}

TEST(PeriodicWaveRate, OscillatesAroundMean) {
  const PeriodicWaveRate p(10.0, 4.0, 1200.0);
  EXPECT_DOUBLE_EQ(p.rate(0.0), 10.0);           // sin(0) = 0
  EXPECT_NEAR(p.rate(300.0), 14.0, 1e-9);        // quarter period: peak
  EXPECT_NEAR(p.rate(900.0), 6.0, 1e-9);         // three quarters: trough
  EXPECT_NEAR(p.rate(1200.0), 10.0, 1e-9);       // full period
}

TEST(PeriodicWaveRate, ClampsAtZero) {
  const PeriodicWaveRate p(1.0, 5.0, 100.0);
  for (double t = 0.0; t < 100.0; t += 5.0) EXPECT_GE(p.rate(t), 0.0);
  EXPECT_DOUBLE_EQ(p.rate(75.0), 0.0);  // trough would be -4
}

TEST(PeriodicWaveRate, PhaseShiftsTheWave) {
  const PeriodicWaveRate base(10.0, 4.0, 1200.0, 0.0);
  const PeriodicWaveRate shifted(10.0, 4.0, 1200.0, 3.14159265358979);
  EXPECT_NEAR(base.rate(300.0), 14.0, 1e-6);
  EXPECT_NEAR(shifted.rate(300.0), 6.0, 1e-6);
}

TEST(PeriodicWaveRate, RejectsBadParams) {
  EXPECT_THROW(PeriodicWaveRate(-1.0, 1.0, 100.0), PreconditionError);
  EXPECT_THROW(PeriodicWaveRate(1.0, -1.0, 100.0), PreconditionError);
  EXPECT_THROW(PeriodicWaveRate(1.0, 1.0, 0.0), PreconditionError);
}

TEST(RandomWalkRate, DeterministicForSeed) {
  const RandomWalkRate a(10.0, 1.0, 2.0, 20.0, 60.0, 3600.0, 77);
  const RandomWalkRate b(10.0, 1.0, 2.0, 20.0, 60.0, 3600.0, 77);
  for (double t = 0.0; t < 3600.0; t += 60.0) {
    EXPECT_DOUBLE_EQ(a.rate(t), b.rate(t));
  }
}

TEST(RandomWalkRate, StaysWithinClamp) {
  const RandomWalkRate p(10.0, 5.0, 4.0, 16.0, 60.0, 7200.0, 5);
  for (double t = 0.0; t < 7200.0; t += 60.0) {
    EXPECT_GE(p.rate(t), 4.0);
    EXPECT_LE(p.rate(t), 16.0);
  }
}

TEST(RandomWalkRate, HoversAroundMean) {
  const RandomWalkRate p(10.0, 1.0, 0.0, 100.0, 60.0, 48 * 3600.0, 23);
  RunningStats s;
  for (double t = 0.0; t < 48 * 3600.0; t += 60.0) s.add(p.rate(t));
  EXPECT_NEAR(s.mean(), 10.0, 2.0);  // mean reversion keeps it near 10
  EXPECT_GT(s.stddev(), 0.2);        // but it does wander
}

TEST(RandomWalkRate, ActuallyWalks) {
  const RandomWalkRate p(10.0, 2.0, 0.0, 100.0, 60.0, 3600.0, 9);
  bool moved = false;
  const double first = p.rate(0.0);
  for (double t = 60.0; t < 3600.0; t += 60.0) {
    if (p.rate(t) != first) {
      moved = true;
      break;
    }
  }
  EXPECT_TRUE(moved);
}

TEST(RandomWalkRate, WrapsPastHorizon) {
  const RandomWalkRate p(10.0, 1.0, 0.0, 100.0, 60.0, 600.0, 3);
  EXPECT_DOUBLE_EQ(p.rate(0.0), p.rate(600.0));
}

TEST(RandomWalkRate, RejectsBadParams) {
  EXPECT_THROW(RandomWalkRate(10.0, -1.0, 0.0, 20.0, 60.0, 600.0, 1),
               PreconditionError);
  EXPECT_THROW(RandomWalkRate(10.0, 1.0, 20.0, 10.0, 60.0, 600.0, 1),
               PreconditionError);
  EXPECT_THROW(RandomWalkRate(10.0, 1.0, 0.0, 20.0, 0.0, 600.0, 1),
               PreconditionError);
  EXPECT_THROW(
      RandomWalkRate(10.0, 1.0, 0.0, 20.0, 60.0, 600.0, 1, 1.5),
      PreconditionError);
}

TEST(SpikeRate, RectangularBurst) {
  const SpikeRate p(5.0, 50.0, 100.0, 10.0);
  EXPECT_DOUBLE_EQ(p.rate(0.0), 5.0);
  EXPECT_DOUBLE_EQ(p.rate(99.9), 5.0);
  EXPECT_DOUBLE_EQ(p.rate(100.0), 50.0);
  EXPECT_DOUBLE_EQ(p.rate(109.9), 50.0);
  EXPECT_DOUBLE_EQ(p.rate(110.0), 5.0);
}

TEST(MakeProfile, BuildsEachKind) {
  for (const auto kind : {ProfileKind::Constant, ProfileKind::PeriodicWave,
                          ProfileKind::RandomWalk}) {
    const auto p = makeProfile(kind, 8.0, 3600.0, 1);
    ASSERT_NE(p, nullptr) << profileName(kind);
    EXPECT_DOUBLE_EQ(p->meanRate(), 8.0);
    EXPECT_GE(p->rate(0.0), 0.0);
    EXPECT_FALSE(p->describe().empty());
  }
}

TEST(MakeProfile, WaveUsesFortyPercentAmplitude) {
  const auto p = makeProfile(ProfileKind::PeriodicWave, 10.0, 3600.0, 1);
  double peak = 0.0;
  for (double t = 0.0; t < 1800.0; t += 10.0) {
    peak = std::max(peak, p->rate(t));
  }
  EXPECT_NEAR(peak, 14.0, 0.05);
}

TEST(ToStringProfileKind, Names) {
  EXPECT_EQ(profileName(ProfileKind::Constant), "constant");
  EXPECT_EQ(profileName(ProfileKind::PeriodicWave), "wave");
  EXPECT_EQ(profileName(ProfileKind::RandomWalk), "random-walk");
  EXPECT_EQ(profileName(ProfileKind::Spike), "spike");
}

TEST(ProfileRegistry, NamesRoundTrip) {
  for (const ProfileKind kind : allProfileKinds()) {
    EXPECT_EQ(parseProfileKind(profileName(kind)), kind);
  }
}

TEST(ProfileRegistry, KnowsEveryKindOnce) {
  EXPECT_EQ(allProfileKinds().size(), 4u);
}

TEST(ProfileRegistry, RejectsUnknownNames) {
  EXPECT_THROW((void)parseProfileKind("sawtooth"), PreconditionError);
  EXPECT_THROW((void)parseProfileKind(""), PreconditionError);
  // The old informal spelling must not silently parse.
  EXPECT_THROW((void)parseProfileKind("periodic-wave"), PreconditionError);
}

TEST(MakeProfile, RandomWalkStaysInsideTheDocumentedClamp) {
  // The factory documents a [0.2x, 2x]-of-mean clamp; scan several
  // seeds across two days of minutes and check both bounds hold.
  for (const std::uint64_t seed : {1ull, 7ull, 23ull, 2013ull}) {
    const auto p =
        makeProfile(ProfileKind::RandomWalk, 10.0, 48.0 * 3600.0, seed);
    for (double t = 0.0; t < 48.0 * 3600.0; t += 60.0) {
      ASSERT_GE(p->rate(t), 2.0) << "seed " << seed << " @" << t;
      ASSERT_LE(p->rate(t), 20.0) << "seed " << seed << " @" << t;
    }
  }
}

TEST(MakeProfile, SpikeBoundariesAreHalfOpen) {
  // Flash crowd at [0.4 * horizon, 0.5 * horizon): start inclusive,
  // end exclusive, base rate either side.
  const auto p = makeProfile(ProfileKind::Spike, 10.0, 1000.0, 1);
  EXPECT_DOUBLE_EQ(p->rate(399.999999), 10.0);
  EXPECT_DOUBLE_EQ(p->rate(400.0), 30.0);
  EXPECT_DOUBLE_EQ(p->rate(499.999999), 30.0);
  EXPECT_DOUBLE_EQ(p->rate(500.0), 10.0);
}

TEST(MakeProfile, SpikeBoundariesOnAnUnevenHorizon) {
  // A horizon that is not a multiple of ten still puts the burst at
  // exactly [0.4 h, 0.5 h).
  const auto p = makeProfile(ProfileKind::Spike, 10.0, 777.0, 1);
  const double start = 0.4 * 777.0;
  const double end = start + 0.1 * 777.0;
  EXPECT_DOUBLE_EQ(p->rate(start - 1e-6), 10.0);
  EXPECT_DOUBLE_EQ(p->rate(start), 30.0);
  EXPECT_DOUBLE_EQ(p->rate(end - 1e-6), 30.0);
  EXPECT_DOUBLE_EQ(p->rate(end), 10.0);
}

TEST(MakeProfile, SpikeIsThreeTimesBase) {
  const auto p = makeProfile(ProfileKind::Spike, 10.0, 1000.0, 1);
  EXPECT_DOUBLE_EQ(p->rate(0.0), 10.0);
  EXPECT_DOUBLE_EQ(p->rate(450.0), 30.0);  // inside [400, 500)
  EXPECT_DOUBLE_EQ(p->rate(600.0), 10.0);
}

class ProfileNonNegativeTest
    : public ::testing::TestWithParam<std::pair<ProfileKind, double>> {};

TEST_P(ProfileNonNegativeTest, RatesNeverNegative) {
  const auto [kind, mean] = GetParam();
  const auto p = makeProfile(kind, mean, 7200.0, 17);
  for (double t = 0.0; t < 7200.0; t += 30.0) {
    EXPECT_GE(p->rate(t), 0.0) << profileName(kind) << " @" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndRates, ProfileNonNegativeTest,
    ::testing::Values(std::pair{ProfileKind::Constant, 2.0},
                      std::pair{ProfileKind::PeriodicWave, 2.0},
                      std::pair{ProfileKind::RandomWalk, 2.0},
                      std::pair{ProfileKind::PeriodicWave, 50.0},
                      std::pair{ProfileKind::RandomWalk, 50.0},
                      std::pair{ProfileKind::Spike, 10.0}));

}  // namespace
}  // namespace dds

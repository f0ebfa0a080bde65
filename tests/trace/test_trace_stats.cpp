#include "dds/trace/trace_stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dds/common/rng.hpp"
#include "dds/trace/trace_gen.hpp"

namespace dds {
namespace {

TEST(Autocorrelation, UnityAtLagZero) {
  const PerfTrace t({1.0, 2.0, 3.0, 2.0, 1.0}, 1.0);
  EXPECT_NEAR(autocorrelation(t, 0), 1.0, 1e-12);
}

TEST(Autocorrelation, ConstantTraceIsDefinedAsZero) {
  const PerfTrace t({2.0, 2.0, 2.0, 2.0}, 1.0);
  EXPECT_DOUBLE_EQ(autocorrelation(t, 0), 1.0);
  EXPECT_DOUBLE_EQ(autocorrelation(t, 1), 0.0);
}

TEST(Autocorrelation, AlternatingSeriesIsAntiCorrelatedAtLagOne) {
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(i % 2 == 0 ? 1.0 : -1.0);
  const PerfTrace t(
      [&xs] {  // shift positive; PerfTrace requires non-negative samples
        std::vector<double> shifted;
        for (double x : xs) shifted.push_back(x + 2.0);
        return shifted;
      }(),
      1.0);
  EXPECT_LT(autocorrelation(t, 1), -0.9);
}

TEST(Autocorrelation, WhiteNoiseDecorrelatesImmediately) {
  Rng rng(4);
  std::vector<double> xs;
  for (int i = 0; i < 4000; ++i) xs.push_back(rng.uniform(0.5, 1.5));
  const PerfTrace t(std::move(xs), 1.0);
  EXPECT_NEAR(autocorrelation(t, 1), 0.0, 0.05);
  EXPECT_EQ(decorrelationLag(t), 1u);
}

TEST(Autocorrelation, ArProcessDecorrelatesSlowly) {
  // The CPU generator uses AR(1) with pole 0.9: correlation should stay
  // high for several lags.
  Rng rng(11);
  TraceGenParams p = cpuTraceParams();
  p.diurnal_amplitude = 0.0;  // isolate the AR component
  p.shift_probability = 0.0;
  const auto t = generateTrace(p, 4 * 24 * 3600.0, 300.0, rng);
  EXPECT_GT(autocorrelation(t, 1), 0.6);
  EXPECT_GT(decorrelationLag(t), 2u);
}

TEST(Autocorrelation, RejectsExcessiveLag) {
  const PerfTrace t({1.0, 2.0}, 1.0);
  EXPECT_THROW((void)autocorrelation(t, 2), PreconditionError);
}

TEST(FractionBelow, BasicCounting) {
  const PerfTrace t({0.5, 0.7, 0.9, 1.1}, 1.0);
  EXPECT_DOUBLE_EQ(fractionBelow(t, 0.8), 0.5);
  EXPECT_DOUBLE_EQ(fractionBelow(t, 0.4), 0.0);
  EXPECT_DOUBLE_EQ(fractionBelow(t, 2.0), 1.0);
}

TEST(FractionBelow, SynthCpuTraceSpendsTimeDegraded) {
  Rng rng(2013);
  const auto t =
      generateTrace(cpuTraceParams(), 4 * 24 * 3600.0, 300.0, rng);
  // The Fig. 2 narrative: a nontrivial share of probes see < 90 % of
  // rated performance, but the majority do not see < 60 %.
  EXPECT_GT(fractionBelow(t, 0.9), 0.05);
  EXPECT_LT(fractionBelow(t, 0.6), 0.5);
}

}  // namespace
}  // namespace dds

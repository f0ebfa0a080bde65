#include "dds/forecast/forecaster.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "dds/common/error.hpp"

namespace dds {
namespace {

TEST(NaiveForecaster, ZeroBeforeFirstObservation) {
  const NaiveForecaster f;
  EXPECT_EQ(f.observationCount(), 0);
  for (const double r : f.forecast(4)) EXPECT_DOUBLE_EQ(r, 0.0);
}

TEST(NaiveForecaster, HoldsLastValueFlat) {
  NaiveForecaster f;
  f.observe(3.0);
  f.observe(7.5);
  EXPECT_EQ(f.observationCount(), 2);
  const auto fc = f.forecast(3);
  ASSERT_EQ(fc.size(), 3u);
  for (const double r : fc) EXPECT_DOUBLE_EQ(r, 7.5);
}

TEST(NaiveForecaster, RejectsNegativeRateAndZeroHorizon) {
  NaiveForecaster f;
  EXPECT_THROW(f.observe(-1.0), PreconditionError);
  EXPECT_THROW(f.forecast(0), PreconditionError);
}

TEST(EwmaForecaster, FirstObservationSetsTheLevel) {
  EwmaForecaster f(0.5);
  f.observe(10.0);
  EXPECT_DOUBLE_EQ(f.forecast(1)[0], 10.0);
}

TEST(EwmaForecaster, BlendsTowardNewObservations) {
  EwmaForecaster f(0.5);
  f.observe(10.0);
  f.observe(20.0);  // level = 0.5*20 + 0.5*10 = 15
  const auto fc = f.forecast(2);
  EXPECT_DOUBLE_EQ(fc[0], 15.0);
  EXPECT_DOUBLE_EQ(fc[1], 15.0);  // held flat over the horizon
}

TEST(EwmaForecaster, RejectsBadAlpha) {
  EXPECT_THROW(EwmaForecaster(0.0), PreconditionError);
  EXPECT_THROW(EwmaForecaster(1.5), PreconditionError);
}

TEST(HoltWinters, FallsBackToEwmaBeforeOneSeason) {
  HoltWintersForecaster f(0.5, 0.05, 0.3, 4);
  EXPECT_FALSE(f.seasonal());
  f.observe(10.0);
  f.observe(20.0);
  EXPECT_FALSE(f.seasonal());
  EXPECT_DOUBLE_EQ(f.forecast(1)[0], 15.0);  // EWMA level, same alpha
}

TEST(HoltWinters, InitializesAfterOneFullSeason) {
  HoltWintersForecaster f(0.3, 0.05, 0.3, 4);
  for (const double r : {8.0, 12.0, 10.0, 10.0}) f.observe(r);
  EXPECT_TRUE(f.seasonal());
  // level = season mean (10), trend = 0, seasonal = deviations; the
  // next-step prediction replays the first warm-up slot's deviation.
  EXPECT_DOUBLE_EQ(f.forecast(1)[0], 8.0);
}

TEST(HoltWinters, ConvergesOnPurePeriodicProfile) {
  // The satellite acceptance for the forecasting subsystem: on an
  // exactly periodic profile the additive model's one-step error drops
  // to ~0 once the seasonal state has initialized from the first
  // season — level stays constant, trend stays zero, and the seasonal
  // terms capture the wave exactly.
  constexpr int kSeason = 24;
  const auto rate = [](std::int64_t i) {
    return 10.0 +
           4.0 * std::sin(2.0 * std::numbers::pi *
                          static_cast<double>(i % kSeason) / kSeason);
  };
  HoltWintersForecaster f(0.3, 0.05, 0.3, kSeason);
  std::int64_t i = 0;
  for (; i < 3 * kSeason; ++i) f.observe(rate(i));
  ASSERT_TRUE(f.seasonal());
  double worst = 0.0;
  for (std::int64_t k = 0; k < 2 * kSeason; ++k, ++i) {
    worst = std::max(worst, std::abs(f.forecast(1)[0] - rate(i)));
    f.observe(rate(i));
  }
  EXPECT_LT(worst, 1e-9);
}

TEST(HoltWinters, MultiStepForecastTracksTheSeason) {
  constexpr int kSeason = 6;
  const auto rate = [](std::int64_t i) {
    return 10.0 + ((i % kSeason) == 2 ? 5.0 : 0.0);
  };
  HoltWintersForecaster f(0.3, 0.05, 0.3, kSeason);
  std::int64_t i = 0;
  for (; i < 4 * kSeason; ++i) f.observe(rate(i));
  const auto fc = f.forecast(kSeason);
  for (int k = 0; k < kSeason; ++k) {
    EXPECT_NEAR(fc[static_cast<std::size_t>(k)], rate(i + k), 1e-9) << k;
  }
}

TEST(HoltWinters, PredictionsClampAtZero) {
  // A deep trough below zero in the additive decomposition must not
  // produce a negative rate.
  HoltWintersForecaster f(1.0, 0.0, 1.0, 2);
  f.observe(0.0);
  f.observe(10.0);
  f.observe(0.0);
  for (const double r : f.forecast(4)) EXPECT_GE(r, 0.0);
}

TEST(HoltWinters, RejectsBadParams) {
  EXPECT_THROW(HoltWintersForecaster(0.0, 0.1, 0.1, 4), PreconditionError);
  EXPECT_THROW(HoltWintersForecaster(0.3, -0.1, 0.1, 4), PreconditionError);
  EXPECT_THROW(HoltWintersForecaster(0.3, 0.1, 1.1, 4), PreconditionError);
  EXPECT_THROW(HoltWintersForecaster(0.3, 0.1, 0.1, 1), PreconditionError);
}

TEST(ForecastErrorTracker, MapeAndBias) {
  ForecastErrorTracker t;
  t.record(12.0, 10.0);  // +20% error, bias +2
  t.record(8.0, 10.0);   // -20% error, bias -2
  EXPECT_EQ(t.count(), 2);
  EXPECT_DOUBLE_EQ(t.mape(), 0.2);
  EXPECT_DOUBLE_EQ(t.bias(), 0.0);
}

TEST(ForecastErrorTracker, SkipsNearZeroRealizedRatesInMape) {
  ForecastErrorTracker t;
  t.record(5.0, 0.0);    // bias only; a 0-denominator APE would explode
  t.record(11.0, 10.0);  // 10%
  EXPECT_DOUBLE_EQ(t.mape(), 0.1);
  EXPECT_DOUBLE_EQ(t.bias(), 3.0);
}

TEST(ForecastErrorTracker, EmptyTrackerReportsZero) {
  const ForecastErrorTracker t;
  EXPECT_EQ(t.count(), 0);
  EXPECT_DOUBLE_EQ(t.mape(), 0.0);
  EXPECT_DOUBLE_EQ(t.bias(), 0.0);
}

// --- registry ---

TEST(ForecastRegistry, NamesRoundTrip) {
  for (const ForecastModel model : allForecastModels()) {
    EXPECT_EQ(parseForecastModel(forecastModelName(model)), model);
  }
}

TEST(ForecastRegistry, KnowsEveryModelOnce) {
  EXPECT_EQ(allForecastModels().size(), 4u);
  EXPECT_EQ(forecastModelName(ForecastModel::Off), "off");
  EXPECT_EQ(forecastModelName(ForecastModel::Naive), "naive");
  EXPECT_EQ(forecastModelName(ForecastModel::Ewma), "ewma");
  EXPECT_EQ(forecastModelName(ForecastModel::HoltWinters), "holt-winters");
}

TEST(ForecastRegistry, RejectsUnknownNames) {
  EXPECT_THROW((void)parseForecastModel("oracle"), PreconditionError);
  EXPECT_THROW((void)parseForecastModel(""), PreconditionError);
}

TEST(ForecastRegistry, FactoryBuildsEveryRealModel) {
  ForecastConfig cfg;
  for (const ForecastModel model : allForecastModels()) {
    cfg.model = model;
    if (model == ForecastModel::Off) {
      EXPECT_THROW((void)makeForecaster(cfg), PreconditionError);
      continue;
    }
    const auto f = makeForecaster(cfg);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->name(), forecastModelName(model));
    EXPECT_EQ(f->observationCount(), 0);
  }
}

TEST(ForecastRegistry, FactoryAppliesOptions) {
  ForecastConfig cfg;
  cfg.model = ForecastModel::Ewma;
  cfg.ewma_alpha = 1.0;  // degenerate EWMA: tracks the last value
  const auto f = makeForecaster(cfg);
  f->observe(4.0);
  f->observe(9.0);
  EXPECT_DOUBLE_EQ(f->forecast(1)[0], 9.0);
}

}  // namespace
}  // namespace dds

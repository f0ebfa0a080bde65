// Input-rate forecasting for predictive scheduling.
//
// The paper's adaptive schedulers react to the *last* observed interval,
// so every flash crowd pays a full reaction lag — made worse once
// provisioning delays charge real boot time before new VMs deliver power.
// A Forecaster closes that gap: it observes the per-interval external
// input rate the monitoring layer measured and emits a predicted rate
// vector over a configurable horizon, which the predictive scheduler
// variants score plans against (multi-step lookahead via PlanEvaluator)
// and use to pre-acquire VMs ahead of forecast peaks.
//
// This library is a leaf: models depend only on dds_common. The engine
// owns the Forecaster instance; schedulers only ever see the predicted
// rate vector (ObservedState::forecast), never the model itself.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dds {

/// Which forecasting model a run uses. Off (the default) keeps every
/// code path bit-identical to the pre-forecast behaviour. The registry
/// at the bottom of this header is the single place mapping models to
/// names and instances, mirroring the scheduler registry.
enum class ForecastModel {
  Off,          ///< forecasting disabled (reactive scheduling only).
  Naive,        ///< last observed value, held flat over the horizon.
  Ewma,         ///< exponentially weighted moving average level.
  HoltWinters,  ///< additive Holt-Winters: level + trend + seasonality.
};

/// Rate forecasting (default off; both backends). Off, runs are
/// bit-identical to reactive: no forecaster is built, schedulers see a
/// null forecast pointer. How the predictive heuristic uses a forecast
/// (pre-acquisition margin, lookahead scoring) is HeuristicConfig's.
/// Model defaults are tuned for the §8.1 workload shapes: 60 s
/// intervals, 30 min wave period -> 30-interval season.
struct ForecastConfig {
  /// Which model predicts future input rates; Off disables the subsystem
  /// entirely.
  ForecastModel model = ForecastModel::Off;
  /// How many intervals ahead each forecast covers. The predictive
  /// schedulers score alternates over this whole vector and scan it
  /// (bounded by the pre-acquisition lead) for peaks.
  int horizon_intervals = 5;
  double ewma_alpha = 0.3;       ///< EWMA level weight on the newest rate.
  double hw_alpha = 0.3;         ///< Holt-Winters level smoothing.
  double hw_beta = 0.05;         ///< Holt-Winters trend smoothing.
  double hw_gamma = 0.3;         ///< Holt-Winters seasonal smoothing.
  int hw_season_intervals = 30;  ///< season length, in intervals.

  [[nodiscard]] bool enabled() const { return model != ForecastModel::Off; }

  /// Append one message per invalid field to `errors` (never throws).
  void appendErrors(std::vector<std::string>& errors) const;

  bool operator==(const ForecastConfig&) const = default;
};

/// Online rate predictor: observe one measured rate per interval, then
/// ask for the next `horizon` intervals. forecast(h)[k] predicts the
/// rate of the (k+1)-th not-yet-observed interval; predictions are
/// clamped at zero (rates cannot go negative).
class Forecaster {
 public:
  virtual ~Forecaster() = default;

  /// Registry name of the model ("naive", "ewma", "holt-winters").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Feed the rate measured over the interval that just ended.
  virtual void observe(double rate) = 0;

  /// Predicted rates for the next `horizon` intervals. Before the first
  /// observation every model predicts zero (there is nothing to go on).
  [[nodiscard]] virtual std::vector<double> forecast(int horizon) const = 0;

  /// How many rates this forecaster has observed.
  [[nodiscard]] virtual std::int64_t observationCount() const = 0;
};

/// Last observed value, held flat.
class NaiveForecaster final : public Forecaster {
 public:
  [[nodiscard]] std::string name() const override { return "naive"; }
  void observe(double rate) override;
  [[nodiscard]] std::vector<double> forecast(int horizon) const override;
  [[nodiscard]] std::int64_t observationCount() const override {
    return count_;
  }

 private:
  double last_ = 0.0;
  std::int64_t count_ = 0;
};

/// Exponentially weighted moving average: level' = a*r + (1-a)*level,
/// held flat over the horizon.
class EwmaForecaster final : public Forecaster {
 public:
  explicit EwmaForecaster(double alpha);
  [[nodiscard]] std::string name() const override { return "ewma"; }
  void observe(double rate) override;
  [[nodiscard]] std::vector<double> forecast(int horizon) const override;
  [[nodiscard]] std::int64_t observationCount() const override {
    return count_;
  }

 private:
  double alpha_;
  double level_ = 0.0;
  std::int64_t count_ = 0;
};

/// Additive Holt-Winters (level + trend + seasonal component of length
/// m). Until m observations arrive it falls back to an EWMA level (with
/// the same alpha); the m-th observation initializes level to the first
/// season's mean, trend to zero and the seasonal terms to the deviations
/// from that mean. Periodic profiles (the §8.1 wave) converge to near-
/// zero forecast error after one further season of warm-up.
class HoltWintersForecaster final : public Forecaster {
 public:
  HoltWintersForecaster(double alpha, double beta, double gamma,
                        int season_intervals);
  [[nodiscard]] std::string name() const override { return "holt-winters"; }
  void observe(double rate) override;
  [[nodiscard]] std::vector<double> forecast(int horizon) const override;
  [[nodiscard]] std::int64_t observationCount() const override {
    return count_;
  }

  /// Whether the seasonal state is initialized (>= one full season seen).
  [[nodiscard]] bool seasonal() const { return initialized_; }

 private:
  double alpha_;
  double beta_;
  double gamma_;
  std::size_t season_;
  bool initialized_ = false;
  double level_ = 0.0;
  double trend_ = 0.0;
  std::vector<double> seasonal_;  ///< by (observation index mod season).
  std::vector<double> warmup_;    ///< first season's raw observations.
  std::int64_t count_ = 0;
};

/// Tracks one-step forecast error across a run: MAPE (mean absolute
/// percentage error over intervals with a non-negligible realized rate)
/// and bias (mean of predicted - realized; positive = over-forecasting).
class ForecastErrorTracker {
 public:
  void record(double predicted, double realized);

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double mape() const;
  [[nodiscard]] double bias() const;

 private:
  std::int64_t count_ = 0;
  std::int64_t mape_count_ = 0;
  double mape_sum_ = 0.0;
  double bias_sum_ = 0.0;
};

// ---------------------------------------------------------------------------
// Forecaster registry: the one place that knows every concrete model.
// ---------------------------------------------------------------------------

/// Canonical CLI/config name of a model ("off", "naive", "ewma",
/// "holt-winters").
[[nodiscard]] std::string forecastModelName(ForecastModel model);

/// Inverse of forecastModelName(); throws PreconditionError on unknown
/// names.
[[nodiscard]] ForecastModel parseForecastModel(const std::string& name);

/// Every ForecastModel, in enum order — for sweeps, help text and
/// round-trip tests.
[[nodiscard]] const std::vector<ForecastModel>& allForecastModels();

/// Build a forecaster for `config.model` with its parameters; throws
/// PreconditionError for Off (callers gate on the model before
/// constructing).
[[nodiscard]] std::unique_ptr<Forecaster> makeForecaster(
    const ForecastConfig& config);

}  // namespace dds

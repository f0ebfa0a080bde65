// The forecaster registry: names, parsing, config checks and construction
// for every concrete model. Adding a ForecastModel is a change to this
// file (plus the enum) — engine, tools and bench code go through the
// factory.
#include <sstream>

#include "dds/common/error.hpp"
#include "dds/forecast/forecaster.hpp"

namespace dds {

std::string forecastModelName(ForecastModel model) {
  switch (model) {
    case ForecastModel::Off:
      return "off";
    case ForecastModel::Naive:
      return "naive";
    case ForecastModel::Ewma:
      return "ewma";
    case ForecastModel::HoltWinters:
      return "holt-winters";
  }
  return "unknown";
}

const std::vector<ForecastModel>& allForecastModels() {
  static const std::vector<ForecastModel> kModels = {
      ForecastModel::Off, ForecastModel::Naive, ForecastModel::Ewma,
      ForecastModel::HoltWinters};
  return kModels;
}

ForecastModel parseForecastModel(const std::string& name) {
  for (const ForecastModel model : allForecastModels()) {
    if (forecastModelName(model) == name) return model;
  }
  throw PreconditionError("unknown forecast model: '" + name + "'");
}

void ForecastConfig::appendErrors(std::vector<std::string>& errors) const {
  require(errors, horizon_intervals >= 1,
          "forecast horizon must be at least 1 interval");
  require(errors, ewma_alpha > 0.0 && ewma_alpha <= 1.0,
          "EWMA alpha must be in (0, 1]");
  require(errors, hw_alpha > 0.0 && hw_alpha <= 1.0,
          "Holt-Winters alpha must be in (0, 1]");
  require(errors, hw_beta >= 0.0 && hw_beta <= 1.0,
          "Holt-Winters beta must be in [0, 1]");
  require(errors, hw_gamma >= 0.0 && hw_gamma <= 1.0,
          "Holt-Winters gamma must be in [0, 1]");
  require(errors, hw_season_intervals >= 2,
          "Holt-Winters season must be at least 2 intervals");
}

std::unique_ptr<Forecaster> makeForecaster(const ForecastConfig& config) {
  switch (config.model) {
    case ForecastModel::Off:
      break;  // fall through to the error below.
    case ForecastModel::Naive:
      return std::make_unique<NaiveForecaster>();
    case ForecastModel::Ewma:
      return std::make_unique<EwmaForecaster>(config.ewma_alpha);
    case ForecastModel::HoltWinters:
      return std::make_unique<HoltWintersForecaster>(
          config.hw_alpha, config.hw_beta, config.hw_gamma,
          config.hw_season_intervals);
  }
  std::ostringstream os;
  os << "makeForecaster: no forecaster for model '"
     << forecastModelName(config.model) << "'";
  throw PreconditionError(os.str());
}

}  // namespace dds

#include "dds/core/engine.hpp"

#include <cmath>

#include "interval_loop.hpp"

namespace dds {

std::string toString(SimBackend backend) {
  return backend == SimBackend::Fluid ? "fluid" : "event";
}

void WorkloadConfig::appendErrors(std::vector<std::string>& errors) const {
  require(errors, mean_rate > 0.0, "mean rate must be positive");
  if (mean_rate > kMaxMeanRate) {
    errors.push_back("workload.mean_rate must be at most " +
                     std::to_string(static_cast<int>(kMaxMeanRate)) +
                     " msgs/s");
  }
  require(errors, msg_size_bytes > 0.0, "message size must be positive");
  // A finite workload.msg_size_kb can still overflow the kB -> B scaling.
  require(errors, std::isfinite(msg_size_bytes), "message size must be finite");
}

std::vector<std::string> ExperimentConfig::validationErrors() const {
  std::vector<std::string> errors;
  require(errors, horizon_s > 0.0, "horizon must be positive");
  require(errors, interval_s > 0.0 && interval_s <= horizon_s,
          "interval must be positive and within the horizon");
  require(errors, std::isfinite(horizon_s) && std::isfinite(interval_s),
          "horizon and interval must be finite");
  if (std::isfinite(horizon_s) && interval_s > 0.0 &&
      horizon_s / interval_s > static_cast<double>(kMaxIntervalCount)) {
    errors.push_back("horizon spans more than " +
                     std::to_string(kMaxIntervalCount) + " intervals");
  }
  require(errors, omega_target > 0.0 && omega_target <= 1.0,
          "omega target out of range");
  require(errors, epsilon >= 0.0 && epsilon < 1.0, "epsilon out of range");
  heuristic.appendErrors(errors);
  require(errors,
          power_smoothing_alpha > 0.0 && power_smoothing_alpha <= 1.0,
          "smoothing alpha must be in (0, 1]");
  require(errors, placement_racks >= 0, "rack count must be non-negative");
  if (std::string e = unknownCatalogError(catalog); !e.empty()) {
    errors.push_back(std::move(e));
  }
  workload.appendErrors(errors);
  faults.appendErrors(errors);
  elasticity.appendErrors(errors);
  resilience.appendErrors(errors);
  forecast.appendErrors(errors);
  require(errors, backend == SimBackend::Fluid || !faults.anyEnabled(),
          "fault injection is only supported by the fluid backend");
  require(errors,
          backend == SimBackend::Fluid ||
              (!elasticity.delaysEnabled() && !elasticity.spotEnabled()),
          "elasticity delays and the spot tier are only supported by the "
          "fluid backend");
  return errors;
}

void ExperimentConfig::validate() const {
  throwIfAny(validationErrors(), "experiment config");
}

double deriveSigma(const Dataflow& df, double mean_rate, SimTime horizon_s) {
  double gamma_min_sum = 0.0;
  for (const auto& pe : df.pes()) {
    gamma_min_sum += pe.relativeValue(pe.worstValueAlternate());
  }
  const double gamma_min =
      gamma_min_sum / static_cast<double>(df.peCount());
  const double gamma_max = 1.0;  // best-value alternates normalize to 1
  if (gamma_max - gamma_min < 1e-12) {
    // No dynamism in the graph: value is constant, so any positive sigma
    // only scales cost; normalize against the acceptable cost directly.
    return 1.0 / evaluationAcceptableCost(mean_rate, horizon_s);
  }
  // Acceptable-cost line through the origin: running the min-value
  // configuration is worth proportionally less, C_min = Gamma_min * C_max.
  // This reduces sigma to 1 / C_max — one unit of application value is
  // worth exactly the full acceptable budget.
  const double cost_at_max = evaluationAcceptableCost(mean_rate, horizon_s);
  const double cost_at_min = gamma_min * cost_at_max;
  return equivalenceFactor(gamma_max, gamma_min, cost_at_max, cost_at_min);
}

SimulationEngine::SimulationEngine(const Dataflow& dataflow,
                                   ExperimentConfig config)
    : SimulationEngine(dataflow, std::move(config), EngineArenas{}) {}

SimulationEngine::SimulationEngine(const Dataflow& dataflow,
                                   ExperimentConfig config,
                                   EngineArenas arenas)
    : dataflow_(&dataflow),
      config_(std::move(config)),
      arenas_(std::move(arenas)) {
  config_.validate();
  sigma_ = config_.sigma_override >= 0.0
               ? config_.sigma_override
               : deriveSigma(dataflow, config_.workload.mean_rate,
                             config_.horizon_s);
}

ExperimentResult SimulationEngine::run(const SchedulerSpec& spec,
                                       obs::TraceSink* sink) const {
  return runWith<DataflowSimulator, EventSimulator>(spec, sink);
}

}  // namespace dds

#include "dds/sched/lookahead_planner.hpp"

#include <cmath>

#include "dds/common/time.hpp"

namespace dds {
namespace {

/// Score of an infeasible forecast step. Large against Theta's O(1)
/// magnitudes, so feasibility at more steps always dominates value/cost
/// trades, yet finite, so partially-feasible combinations still order.
constexpr double kInfeasiblePenalty = -1.0e3;

/// Moves must clear this margin to count as an improvement; ties keep
/// the incumbent (the lower alternate index, since moves scan in index
/// order from the current choice).
constexpr double kImprovementEps = 1e-12;

constexpr int kMaxPasses = 3;

}  // namespace

LookaheadPlanner::LookaheadPlanner(
    const Dataflow& df, const CloudProvider& cloud,
    std::shared_ptr<const PlanStructure> structure, double omega_target,
    double sigma, SimTime horizon_s)
    : df_(&df),
      cloud_(&cloud),
      structure_(structure != nullptr
                     ? std::move(structure)
                     : PlanStructure::build(df, cloud.catalog())),
      omega_target_(omega_target),
      sigma_(sigma),
      // Billing rounds up to whole hours (same expression as the
      // annealing planner's evaluator setup).
      horizon_hours_(std::ceil(horizon_s / kSecondsPerHour)) {}

double LookaheadPlanner::score(std::size_t steps) {
  double sum = 0.0;
  for (std::size_t k = 0; k < steps; ++k) {
    const double theta = evals_[k]->theta();
    sum += std::isfinite(theta) ? theta : kInfeasiblePenalty;
  }
  return sum / static_cast<double>(steps);
}

LookaheadPlanner::Result LookaheadPlanner::plan(
    const Deployment& deployment, const std::vector<double>& forecast) {
  DDS_REQUIRE(!forecast.empty(), "lookahead needs a non-empty forecast");
  const std::size_t n_pes = df_->peCount();
  const std::size_t steps = forecast.size();

  // The VM multiset on hand: every active instance counts, including
  // ones still provisioning — over the forecast horizon they are online.
  vm_counts_.assign(cloud_->catalog().classes().size(), 0);
  for (const VmId id : cloud_->activeIds()) {
    ++vm_counts_[cloud_->instance(id).classId().value()];
  }

  current_.resize(n_pes);
  for (std::size_t pe = 0; pe < n_pes; ++pe) {
    current_[pe] = deployment.activeAlternate(
        PeId(static_cast<PeId::value_type>(pe)));
  }

  while (evals_.size() < steps) {
    PlanEvaluatorOptions opts;
    opts.omega_target = omega_target_;
    opts.sigma = sigma_;
    opts.horizon_hours = horizon_hours_;
    // Lookahead probes a handful of moves per call, not a 20k-iteration
    // anneal; a small memo keeps construction and reset cheap.
    opts.memo_capacity = 512;
    evals_.push_back(std::make_unique<PlanEvaluator>(structure_, *df_,
                                                     cloud_->catalog(),
                                                     opts));
  }
  for (std::size_t k = 0; k < steps; ++k) {
    evals_[k]->setInputRate(forecast[k]);
    evals_[k]->reset(current_, vm_counts_);
  }

  Result result;
  double best = score(steps);
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool improved = false;
    for (std::size_t pe = 0; pe < n_pes; ++pe) {
      const auto& element =
          df_->pe(PeId(static_cast<PeId::value_type>(pe)));
      for (std::size_t j = 0; j < element.alternateCount(); ++j) {
        const AlternateId alt(static_cast<AlternateId::value_type>(j));
        if (alt == current_[pe]) continue;
        for (std::size_t k = 0; k < steps; ++k) {
          evals_[k]->setAlternate(pe, alt);
        }
        const double candidate = score(steps);
        if (candidate > best + kImprovementEps) {
          best = candidate;
          current_[pe] = alt;
          improved = true;
        } else {
          for (std::size_t k = 0; k < steps; ++k) {
            evals_[k]->setAlternate(pe, current_[pe]);
          }
        }
      }
    }
    if (!improved) break;
  }

  result.alternates = current_;
  result.mean_theta = best;
  for (std::size_t pe = 0; pe < n_pes; ++pe) {
    if (current_[pe] !=
        deployment.activeAlternate(PeId(static_cast<PeId::value_type>(pe)))) {
      ++result.switches;
    }
  }
  return result;
}

}  // namespace dds

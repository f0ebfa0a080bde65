// Simulated-annealing static planner.
//
// The paper dismisses exact solvers ("such tractability does not
// adequately translate to low latency solutions") and its brute-force
// optimal becomes intractable beyond small rates (Fig. 5). This planner
// fills the gap between the two baselines: a local-search static optimizer
// over the same plan space — (alternate combination, VM multiset) — that
// reaches near-optimal Theta in bounded time at any rate. It is a
// *static* policy like the brute force: deploy once, never adapt.
//
// Moves: flip one PE's alternate, or add/remove one VM of a random class.
// Energy: −Theta for feasible plans (greedy core assignment must cover
// the constraint-scaled demand), with infeasible plans rejected outright.
// Standard exponential cooling; fully deterministic for a given seed.
//
// Candidates are scored through the incremental PlanEvaluator (delta
// demand propagation + feasibility memo): a move is applied in place and
// a rejected one undone. The settled plan is re-scored from scratch by
// referencePlanTheta, which also yields the greedy core assignment to
// materialize, and deploy() requires the two scores to agree bit for bit.
// PlanEvaluator's own tests check every move kind and undo against the
// from-scratch score.
#pragma once

#include "dds/sched/scheduler.hpp"

namespace dds {

/// Annealing knobs.
struct AnnealingOptions {
  std::size_t iterations = 20'000;
  double initial_temperature = 0.05;  ///< in Theta units.
  double cooling = 0.9995;            ///< per-iteration multiplier.
  /// Feasibility-memo slots (rounded up to a power of two); 0 disables
  /// memoization while keeping incremental demand maintenance.
  std::size_t memo_capacity = 8192;

  void validate() const {
    DDS_REQUIRE(iterations >= 1, "need at least one iteration");
    DDS_REQUIRE(initial_temperature > 0.0, "temperature must be positive");
    DDS_REQUIRE(cooling > 0.0 && cooling < 1.0,
                "cooling must be in (0, 1)");
  }
};

/// Near-optimal static planner via simulated annealing.
class AnnealingScheduler final : public Scheduler {
 public:
  /// Scores plans with the env's sigma over its horizon T; the env's
  /// seed drives the search.
  explicit AnnealingScheduler(SchedulerEnv env, AnnealingOptions options = {});

  [[nodiscard]] Deployment deploy(double estimated_input_rate) override;

  /// Theta of the plan the last deploy() settled on.
  [[nodiscard]] double bestTheta() const { return best_theta_; }

 private:
  SchedulerEnv env_;
  AnnealingOptions options_;
  double best_theta_ = 0.0;
};

}  // namespace dds

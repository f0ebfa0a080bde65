// Brute-force static deployment (§8.1's "static brute-force optimal").
//
// Exhaustively enumerates every alternate combination and, for each, every
// VM multiset up to the demand bound, assuming rated (no-variability)
// performance and a constant input rate. It maximizes the §6 objective
// Theta = Gamma − sigma * cost over the whole horizon, subject to the
// planned throughput meeting the constraint. Deployment only — it never
// adapts, and like the paper's version it becomes prohibitively expensive
// beyond small graphs/rates (the combination cap throws when exceeded).
#pragma once

#include <cstddef>

#include "dds/sched/scheduler.hpp"

namespace dds {

/// Thrown when the search space exceeds the configured cap (the paper's
/// "takes prohibitively long to find a solution for higher data rates").
class SearchSpaceTooLarge : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Exhaustive static optimizer for small dynamic dataflows.
class BruteForceScheduler final : public Scheduler {
 public:
  /// Scores plans with the env's sigma (the user's value/cost
  /// equivalence factor, §6) over its horizon T, the optimization period
  /// the static plan is billed for.
  explicit BruteForceScheduler(SchedulerEnv env,
                               std::size_t max_combinations = 60'000'000);

  [[nodiscard]] Deployment deploy(double estimated_input_rate) override;

  /// Number of (alternate-combination x VM-multiset) plans examined by the
  /// last deploy() call; exposed for the scalability discussion.
  [[nodiscard]] std::size_t plansExamined() const { return plans_examined_; }

 private:
  SchedulerEnv env_;
  std::size_t max_combinations_;
  std::size_t plans_examined_ = 0;
};

}  // namespace dds

// QoS metrics and the optimization objective (paper §3, §6).
//
// Per interval t the system observes:
//  * Omega(t) — relative application throughput (Def. 4), in (0, 1];
//  * Gamma(t) — normalized application value (Def. 3), in (0, 1];
//  * mu(t)    — cumulative dollar cost of all VM instances so far (§4).
// Over the optimization period: Omega-bar and Gamma-bar are interval means,
// mu is the final cumulative cost, and the profit objective is
// Theta = Gamma-bar − sigma · mu, maximized subject to Omega-bar >= Omega-hat.
#pragma once

#include <vector>

#include "dds/common/error.hpp"
#include "dds/common/time.hpp"

namespace dds {

/// Per-PE observations for one interval; consumed by the runtime
/// adaptation heuristics (bottleneck detection) and by tests.
struct PeIntervalStats {
  double arrival_rate = 0.0;    ///< msgs/s arriving on input ports.
  double offered_rate = 0.0;    ///< arrival plus backlog pressure, msgs/s.
  double processed_rate = 0.0;  ///< msgs/s actually processed.
  double output_rate = 0.0;     ///< msgs/s emitted downstream.
  double capacity_rate = 0.0;   ///< msgs/s the allocated cores could do.
  double relative_throughput = 1.0;  ///< Omega_i = processed / offered.
  double backlog_msgs = 0.0;    ///< queued messages at interval end.
  int allocated_cores = 0;
};

/// Everything measured during one adaptation interval.
struct IntervalMetrics {
  IntervalIndex index = 0;
  SimTime start = 0.0;
  double input_rate = 0.0;       ///< external msgs/s during the interval.
  double omega = 1.0;            ///< Def. 4.
  double gamma = 1.0;            ///< Def. 3.
  double cost_cumulative = 0.0;  ///< mu at interval end, dollars.
  int active_vms = 0;
  int allocated_cores = 0;
  std::vector<PeIntervalStats> pe_stats;  ///< indexed by PeId.
};

/// The full time series of one experiment run plus derived aggregates.
class RunResult {
 public:
  void add(IntervalMetrics m) { intervals_.push_back(std::move(m)); }

  [[nodiscard]] const std::vector<IntervalMetrics>& intervals() const {
    return intervals_;
  }
  [[nodiscard]] bool empty() const { return intervals_.empty(); }

  /// Omega-bar: mean relative throughput over the period.
  [[nodiscard]] double averageOmega() const;

  /// Gamma-bar: mean normalized value over the period.
  [[nodiscard]] double averageGamma() const;

  /// Whether Omega-bar >= omega_hat − epsilon (§8.2's necessary check).
  [[nodiscard]] bool meetsThroughputConstraint(double omega_hat,
                                               double epsilon) const {
    return averageOmega() >= omega_hat - epsilon;
  }

 private:
  std::vector<IntervalMetrics> intervals_;
};

/// Fault-recovery statistics over one run, derived from the Omega(t)
/// series. A *violation episode* is a maximal run of consecutive intervals
/// with Omega(t) < Omega-hat. An episode that ends before the horizon does
/// is *recovered*; one still open at the last interval is not.
struct RecoveryStats {
  int violation_episodes = 0;     ///< total episodes (incl. unrecovered).
  int unrecovered_episodes = 0;   ///< episodes still open at the horizon.
  /// Mean recovered-episode length in seconds (the per-episode time to
  /// repair); 0 when no episode recovered.
  double mttr_s = 0.0;
  /// Longest episode in seconds, recovered or not.
  double longest_episode_s = 0.0;
  /// Fraction of intervals with Omega(t) >= Omega-hat, in [0, 1].
  double availability = 1.0;
  /// Total time spent below Omega-hat across the run, seconds
  /// (violating intervals x interval length, open episodes included).
  double slo_violation_s = 0.0;
  /// 95th-percentile episode length in seconds (linear interpolation
  /// over all episodes, recovered or not); 0 without episodes.
  double p95_episode_s = 0.0;
};

/// Compute recovery statistics from a finished run against `omega_hat`.
/// Pure function of the interval series; interval length is taken from
/// consecutive interval start times (the engine's fixed cadence).
[[nodiscard]] RecoveryStats computeRecoveryStats(const RunResult& result,
                                                 double omega_hat,
                                                 SimTime interval_s);

/// The user's value-vs-cost equivalence factor (§6):
///   sigma = (MaxAppValue − MinAppValue) /
///           (AcceptableCost@MaxVal − AcceptableCost@MinVal).
[[nodiscard]] double equivalenceFactor(double max_value, double min_value,
                                       double cost_at_max,
                                       double cost_at_min);

/// The §8.2 pricing expectation for the Fig. 1 dataflow: acceptable cost at
/// maximum value is $4/hour at 2 msg/s, scaling linearly to $100/hour at
/// 50 msg/s, accrued over the horizon. Returns that dollar amount.
[[nodiscard]] double evaluationAcceptableCost(double data_rate_msgs_per_s,
                                              SimTime horizon_s);

}  // namespace dds

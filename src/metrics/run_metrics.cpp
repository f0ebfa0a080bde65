#include "dds/metrics/run_metrics.hpp"

#include <algorithm>

#include "dds/common/stats.hpp"

namespace dds {

double RunResult::averageOmega() const {
  if (intervals_.empty()) return 0.0;
  double s = 0.0;
  for (const auto& m : intervals_) s += m.omega;
  return s / static_cast<double>(intervals_.size());
}

double RunResult::averageGamma() const {
  if (intervals_.empty()) return 0.0;
  double s = 0.0;
  for (const auto& m : intervals_) s += m.gamma;
  return s / static_cast<double>(intervals_.size());
}

RecoveryStats computeRecoveryStats(const RunResult& result,
                                   double omega_hat, SimTime interval_s) {
  DDS_REQUIRE(omega_hat > 0.0 && omega_hat <= 1.0,
              "omega target out of range");
  DDS_REQUIRE(interval_s > 0.0, "interval length must be positive");
  RecoveryStats stats;
  const auto& intervals = result.intervals();
  if (intervals.empty()) return stats;

  int ok_intervals = 0;
  int episode_len = 0;         // intervals in the currently open episode
  double recovered_total = 0;  // summed lengths of recovered episodes
  int recovered_count = 0;
  int longest = 0;
  std::vector<double> episode_lengths;
  for (const auto& m : intervals) {
    if (m.omega >= omega_hat) {
      ++ok_intervals;
      if (episode_len > 0) {
        ++stats.violation_episodes;
        ++recovered_count;
        recovered_total += episode_len;
        longest = std::max(longest, episode_len);
        episode_lengths.push_back(static_cast<double>(episode_len));
        episode_len = 0;
      }
    } else {
      ++episode_len;
    }
  }
  if (episode_len > 0) {
    // Still below the constraint at the horizon: counted but unrecovered.
    ++stats.violation_episodes;
    ++stats.unrecovered_episodes;
    longest = std::max(longest, episode_len);
    episode_lengths.push_back(static_cast<double>(episode_len));
  }
  if (recovered_count > 0) {
    stats.mttr_s = recovered_total /
                   static_cast<double>(recovered_count) * interval_s;
  }
  stats.longest_episode_s = static_cast<double>(longest) * interval_s;
  stats.availability = static_cast<double>(ok_intervals) /
                       static_cast<double>(intervals.size());
  stats.slo_violation_s =
      static_cast<double>(static_cast<int>(intervals.size()) - ok_intervals) *
      interval_s;
  if (!episode_lengths.empty()) {
    const double p95_intervals = percentiles(episode_lengths, {95.0})[0];
    stats.p95_episode_s = p95_intervals * interval_s;
  }
  return stats;
}

double equivalenceFactor(double max_value, double min_value,
                         double cost_at_max, double cost_at_min) {
  DDS_REQUIRE(max_value > min_value,
              "max application value must exceed min");
  DDS_REQUIRE(cost_at_max > cost_at_min,
              "acceptable cost at max value must exceed cost at min value");
  return (max_value - min_value) / (cost_at_max - cost_at_min);
}

double evaluationAcceptableCost(double data_rate_msgs_per_s,
                                SimTime horizon_s) {
  DDS_REQUIRE(data_rate_msgs_per_s > 0.0, "data rate must be positive");
  DDS_REQUIRE(horizon_s > 0.0, "horizon must be positive");
  // $4/hour at 2 msg/s scaling linearly to $100/hour at 50 msg/s (§8.2).
  const double dollars_per_hour =
      4.0 + (100.0 - 4.0) / (50.0 - 2.0) * (data_rate_msgs_per_s - 2.0);
  return dollars_per_hour * horizon_s / kSecondsPerHour;
}

}  // namespace dds

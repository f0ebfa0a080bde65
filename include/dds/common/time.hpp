// Simulation time model.
//
// The paper (§6) divides an optimization period T into equal-length
// intervals {t0, t1, ...}: deployment decisions are made before t0 and
// runtime decisions at the beginning of each interval. We keep wall-clock
// simulation time in seconds (double) and index intervals with a plain
// integer; IntervalClock converts between the two.
#pragma once

#include <cmath>
#include <cstdint>

#include "dds/common/error.hpp"

namespace dds {

/// Simulation time in seconds since the start of the run.
using SimTime = double;

/// Zero-based index of an adaptation interval within the optimization period.
using IntervalIndex = std::int64_t;

constexpr SimTime kSecondsPerHour = 3600.0;
constexpr SimTime kSecondsPerMinute = 60.0;

/// Most adaptation intervals one run may span (horizon / interval length).
/// Far above every experiment here (a 24 h run at 60 s is 1,440), and low
/// enough that a hostile horizon is rejected instead of running for days.
inline constexpr IntervalIndex kMaxIntervalCount = 100000;

/// Maps between interval indices and simulation seconds for one run.
class IntervalClock {
 public:
  /// @param interval_length_s length of each adaptation interval (> 0)
  /// @param horizon_s total length of the optimization period (> 0)
  IntervalClock(SimTime interval_length_s, SimTime horizon_s)
      : interval_length_s_(interval_length_s), horizon_s_(horizon_s) {
    DDS_REQUIRE(interval_length_s > 0.0, "interval length must be positive");
    DDS_REQUIRE(horizon_s > 0.0, "horizon must be positive");
    DDS_REQUIRE(std::isfinite(interval_length_s) && std::isfinite(horizon_s),
                "interval length and horizon must be finite");
    DDS_REQUIRE(horizon_s / interval_length_s <=
                    static_cast<double>(kMaxIntervalCount),
                "horizon spans too many intervals");
  }

  [[nodiscard]] SimTime intervalLength() const { return interval_length_s_; }
  [[nodiscard]] SimTime horizon() const { return horizon_s_; }

  /// Number of whole intervals in the optimization period (at least 1).
  [[nodiscard]] IntervalIndex intervalCount() const {
    auto n = static_cast<IntervalIndex>(horizon_s_ / interval_length_s_);
    return n > 0 ? n : 1;
  }

  /// Simulation time at which interval `i` begins.
  [[nodiscard]] SimTime startOf(IntervalIndex i) const {
    DDS_REQUIRE(i >= 0, "interval index must be non-negative");
    return static_cast<SimTime>(i) * interval_length_s_;
  }

  /// Simulation time at which interval `i` ends.
  [[nodiscard]] SimTime endOf(IntervalIndex i) const {
    return startOf(i) + interval_length_s_;
  }

  /// Midpoint of interval `i`; used when sampling traces for the interval.
  [[nodiscard]] SimTime midOf(IntervalIndex i) const {
    return startOf(i) + 0.5 * interval_length_s_;
  }

 private:
  SimTime interval_length_s_;
  SimTime horizon_s_;
};

}  // namespace dds

// Performance trace time series (paper §4, §8.1, Figs. 2-3).
//
// A PerfTrace is a uniformly sampled series of performance coefficients
// (dimensionless multipliers around 1.0) such as the observed-to-rated CPU
// speed ratio of a VM, or the observed-to-rated bandwidth ratio between a
// VM pair. Traces are replayed cyclically: queries beyond the trace length
// wrap around, matching the paper's replay of a 4-day window.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "dds/common/error.hpp"
#include "dds/common/stats.hpp"
#include "dds/common/time.hpp"

namespace dds {

/// A coefficient plus the time at which it must be re-queried: the value
/// is exact (zero-order hold) for every query in [query time, valid_until).
struct CoeffSample {
  double value = 1.0;
  SimTime valid_until = 0.0;
};

/// The next double above finite `x`, equal to std::nextafter(x, +inf) but
/// a step of the bit pattern instead of a libm call: ±0 steps to the
/// smallest subnormal, positives step their magnitude up and negatives
/// down (-denorm_min steps to -0).
[[nodiscard]] inline double nextUp(double x) {
  if (x == 0.0) return std::numeric_limits<double>::denorm_min();
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return std::bit_cast<double>(x > 0.0 ? bits + 1 : bits - 1);
}

/// The next double below finite `x`, equal to std::nextafter(x, -inf).
[[nodiscard]] inline double nextDown(double x) { return -nextUp(-x); }

/// A uniformly sampled, cyclically replayed coefficient series.
class PerfTrace {
 public:
  PerfTrace(std::vector<double> samples, SimTime sample_period_s)
      : samples_(std::move(samples)), period_(sample_period_s) {
    DDS_REQUIRE(!samples_.empty(), "trace needs at least one sample");
    DDS_REQUIRE(period_ > 0.0, "sample period must be positive");
    for (double v : samples_) {
      DDS_REQUIRE(v >= 0.0, "trace samples must be non-negative");
    }
  }

  /// A flat trace with a single value (the no-variability scenario).
  static PerfTrace constant(double value) { return PerfTrace({value}, 1.0); }

  [[nodiscard]] std::size_t sampleCount() const { return samples_.size(); }
  [[nodiscard]] SimTime samplePeriod() const { return period_; }
  [[nodiscard]] SimTime duration() const {
    return static_cast<SimTime>(samples_.size()) * period_;
  }

  [[nodiscard]] const std::vector<double>& samples() const {
    return samples_;
  }

  /// Value at absolute time `t` (>= 0), wrapping past the trace end.
  /// Nearest-sample (zero-order hold) semantics.
  [[nodiscard]] double at(SimTime t) const {
    DDS_REQUIRE(t >= 0.0, "trace time must be non-negative");
    const auto idx =
        static_cast<std::size_t>(t / period_) % samples_.size();
    return samples_[idx];
  }

  /// Value at time `offset + t` (wrapping), plus the largest time
  /// `valid_until` such that every query at `offset + t'` with
  /// t <= t' < valid_until lands on the same sample; infinity for a
  /// single-sample (constant) trace. Lets callers cache a coefficient and
  /// recompute only at zero-order-hold boundaries. The replayer assigns
  /// each VM a random window (`offset`) into a shared trace (§8.1). One
  /// division serves both the value and the window.
  [[nodiscard]] CoeffSample sampleAtOffset(SimTime offset, SimTime t) const {
    const SimTime x = offset + t;
    DDS_REQUIRE(x >= 0.0, "trace time must be non-negative");
    const double q = x / period_;
    const double value =
        samples_[static_cast<std::size_t>(q) % samples_.size()];
    if (samples_.size() == 1) {
      return {value, std::numeric_limits<SimTime>::infinity()};
    }
    const double k = std::floor(q);
    SimTime until = (k + 1.0) * period_ - offset;
    // Floating-point guard: (offset + until) / period_ may round across
    // the bin edge either way, and the rounded sum offset + x advances in
    // steps of ulp(offset + x) — far coarser than ulp(x) when the replay
    // offset is large. Retreat a few of those coarse steps so everything
    // below `until` still maps to bin k (conservative but exact; a query
    // landing in the shaved sliver just recomputes), then verify once and
    // only walk in the rare case the band was not enough.
    const double boundary_sum = offset + until;
    until -= 4.0 * (nextUp(boundary_sum) - boundary_sum);
    while (until > t && std::floor((offset + nextDown(until)) / period_) > k) {
      until = nextDown(until);
    }
    // Degenerate rounding (until collapsed onto t): never cache.
    return {value, until > t ? until : t};
  }

  /// Descriptive statistics over all samples (Figs. 2-3 summaries).
  [[nodiscard]] RunningStats stats() const {
    RunningStats s;
    for (double v : samples_) s.add(v);
    return s;
  }

 private:
  std::vector<double> samples_;
  SimTime period_;
};

}  // namespace dds

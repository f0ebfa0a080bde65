// Streaming and batch descriptive statistics.
//
// Used by the monitoring framework (per-VM performance summaries), the
// metrics module (averaging Omega/Gamma over the optimization period) and
// the benchmark harness (reporting trace variability as in Figs. 2-3).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "dds/common/error.hpp"

namespace dds {

/// Single-pass running mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ > 0 ? mean_ : 0.0; }

  /// Population variance; zero for fewer than two samples.
  [[nodiscard]] double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_) : 0.0;
  }

  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }

  /// Coefficient of variation (stddev / |mean|); zero when mean is zero.
  [[nodiscard]] double cv() const {
    return mean_ != 0.0 ? stddev() / std::abs(mean_) : 0.0;
  }

  /// Merge another accumulator into this one (parallel reduction friendly).
  void merge(const RunningStats& o) {
    if (o.count_ == 0) return;
    if (count_ == 0) {
      *this = o;
      return;
    }
    const double total = static_cast<double>(count_ + o.count_);
    const double delta = o.mean_ - mean_;
    m2_ += o.m2_ + delta * delta * static_cast<double>(count_) *
                       static_cast<double>(o.count_) / total;
    mean_ += delta * static_cast<double>(o.count_) / total;
    count_ += o.count_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Arithmetic mean of a sample; zero for an empty span.
[[nodiscard]] inline double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

/// Linear-interpolation percentiles of a sample, for ascending ps in
/// [0, 100]. Percentile p reads the order statistics lo = floor(p/100 (n-1))
/// and hi = min(lo + 1, n - 1) and returns x_lo + frac (x_hi - x_lo).
///
/// Reorders `scratch`, a copy the caller owns, in linear time: each rank
/// runs one std::nth_element over the part the previous ranks left
/// unpartitioned, and x_hi is the minimum of the tail after lo. Order
/// statistics are values, not positions, so the results are the bits a
/// fully sorted copy gives (for samples without NaN or zeros of both signs,
/// which a sort orders arbitrarily too).
template <std::size_t N>
[[nodiscard]] std::array<double, N> percentiles(std::span<double> scratch,
                                                const double (&ps)[N]) {
  DDS_REQUIRE(!scratch.empty(), "percentile of empty sample");
  const std::size_t n = scratch.size();
  const auto first = scratch.begin();
  std::array<double, N> out{};
  std::size_t unpartitioned = 0;  // scratch[0, unpartitioned) is placed
  double prev_p = 0.0;
  for (std::size_t k = 0; k < N; ++k) {
    const double p = ps[k];
    DDS_REQUIRE(p >= prev_p && p <= 100.0,
                "percentiles must ascend within [0, 100]");
    prev_p = p;
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(rank);
    if (lo >= unpartitioned) {
      std::nth_element(first + static_cast<std::ptrdiff_t>(unpartitioned),
                       first + static_cast<std::ptrdiff_t>(lo), scratch.end());
      unpartitioned = lo + 1;
    }
    const double a = scratch[lo];
    const double b =
        lo + 1 < n ? *std::min_element(
                         first + static_cast<std::ptrdiff_t>(lo + 1),
                         scratch.end())
                   : a;
    const double frac = rank - static_cast<double>(lo);
    out[k] = a + frac * (b - a);
  }
  return out;
}

/// Linear-interpolation percentile, p in [0, 100]. Copies and selects.
[[nodiscard]] inline double percentile(std::span<const double> xs, double p) {
  std::vector<double> scratch(xs.begin(), xs.end());
  return percentiles(scratch, {p})[0];
}

}  // namespace dds

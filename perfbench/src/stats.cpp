#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {
namespace {

/// 1-based nearest rank, in integer arithmetic so that e.g. p90 of 100
/// samples is rank 90 exactly.
std::size_t nearestRank(std::size_t n, unsigned pct) {
  if (n == 0 || pct == 0 || pct > 100) {
    throw std::invalid_argument("percentile needs n > 0 and pct in [1, 100]");
  }
  return (n * pct + 99) / 100;
}

/// Continued fraction of the incomplete beta function (modified Lentz).
double betaFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  constexpr double kEps = 1e-15;
  double c = 1.0;
  double d = 1.0 - (a + b) * x / (a + 1.0);
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= 10000; ++m) {
    const double m2 = 2.0 * m;
    for (const double aa : {m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                            -(a + m) * (a + b + m) * x /
                                ((a + m2) * (a + m2 + 1.0))}) {
      d = 1.0 + aa * d;
      if (std::fabs(d) < kTiny) d = kTiny;
      c = 1.0 + aa / c;
      if (std::fabs(c) < kTiny) c = kTiny;
      d = 1.0 / d;
      h *= d * c;
    }
    if (std::fabs(d * c - 1.0) < kEps) break;
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double incompleteBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * betaFraction(a, b, x) / a;
  return 1.0 - front * betaFraction(b, a, 1.0 - x) / b;
}

}  // namespace

double harrellDavis(std::vector<double> values, unsigned pct) {
  if (values.empty() || pct == 0 || pct >= 100) {
    throw std::invalid_argument("Harrell-Davis needs n > 0 and pct in [1, 99]");
  }
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double p = pct / 100.0;
  const double a = p * (n + 1.0);
  const double b = (1.0 - p) * (n + 1.0);
  double estimate = 0.0;
  double below = 0.0;  // I_{(i-1)/n}(a, b)
  for (std::size_t i = 1; i <= values.size(); ++i) {
    const double upto = incompleteBeta(a, b, static_cast<double>(i) / n);
    estimate += (upto - below) * values[i - 1];
    below = upto;
  }
  return estimate;
}

double percentile(std::vector<double> values, unsigned pct) {
  const std::size_t rank = nearestRank(values.size(), pct);
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

std::size_t samplesBeyond(std::size_t n, unsigned pct) {
  return n - nearestRank(n, pct);
}

bool percentileSupported(std::size_t n, unsigned pct) {
  return n > 0 && samplesBeyond(n, pct) >= 10;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50);
}

}  // namespace perfbench

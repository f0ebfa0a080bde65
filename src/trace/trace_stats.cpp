#include "dds/trace/trace_stats.hpp"

#include "dds/common/error.hpp"

namespace dds {

double autocorrelation(const PerfTrace& trace, std::size_t k) {
  const auto& xs = trace.samples();
  DDS_REQUIRE(k < xs.size(), "lag exceeds trace length");
  const double n = static_cast<double>(xs.size());
  double mean = 0.0;
  for (const double x : xs) mean += x;
  mean /= n;
  double var = 0.0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  if (var == 0.0) return k == 0 ? 1.0 : 0.0;  // constant trace
  double cov = 0.0;
  for (std::size_t i = 0; i + k < xs.size(); ++i) {
    cov += (xs[i] - mean) * (xs[i + k] - mean);
  }
  return cov / var;
}

std::size_t decorrelationLag(const PerfTrace& trace, double level) {
  DDS_REQUIRE(level > 0.0 && level < 1.0,
              "decorrelation level must be in (0, 1)");
  for (std::size_t k = 1; k < trace.sampleCount(); ++k) {
    if (autocorrelation(trace, k) < level) return k;
  }
  return trace.sampleCount();
}

double fractionBelow(const PerfTrace& trace, double threshold) {
  std::size_t below = 0;
  for (const double x : trace.samples()) {
    if (x < threshold) ++below;
  }
  return static_cast<double>(below) /
         static_cast<double>(trace.sampleCount());
}

}  // namespace dds

#include "dds/obs/metrics_registry.hpp"

#include <algorithm>
#include <vector>

#include "dds/common/stats.hpp"

namespace dds::obs {

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::Counter;
    s.value = static_cast<double>(c.value());
    s.count = c.value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::Gauge;
    s.value = g.value();
    out.push_back(std::move(s));
  }
  std::vector<double> scratch;  // one copy per histogram, three selections
  for (const auto& [name, h] : histograms_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::Histogram;
    s.count = h.stats().count();
    s.mean = h.stats().mean();
    s.min = h.stats().min();
    s.max = h.stats().max();
    if (!h.samples().empty()) {
      scratch.assign(h.samples().begin(), h.samples().end());
      const auto [p50, p95, p99] = percentiles(scratch, {50.0, 95.0, 99.0});
      s.p50 = p50;
      s.p95 = p95;
      s.p99 = p99;
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

}  // namespace dds::obs

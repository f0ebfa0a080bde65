// Statistical characterization of performance traces.
//
// The Fig. 2-3 reproduction benches need more than mean/stddev to judge
// whether a trace shows the paper's "performance variability over time and
// space":
//  * autocorrelation tells whether deviations are sustained (noisy
//    neighbours parking on a host) or white noise;
//  * the fraction of samples below a threshold says how often a VM ran
//    slower than rated.
#pragma once

#include <cstddef>

#include "dds/trace/perf_trace.hpp"

namespace dds {

/// Sample autocorrelation of the trace at integer lag `k` (in samples);
/// 1.0 at lag 0 by definition. Requires k < sampleCount().
[[nodiscard]] double autocorrelation(const PerfTrace& trace, std::size_t k);

/// Smallest lag (in samples) at which autocorrelation falls below `level`;
/// returns sampleCount() when it never does. A large decorrelation lag
/// means degradations are *sustained* — the regime that matters for
/// adaptation (white noise averages out within an interval).
[[nodiscard]] std::size_t decorrelationLag(const PerfTrace& trace,
                                           double level = 0.5);

/// Fraction of samples below `threshold` — e.g. the fraction of probe
/// intervals in which a VM ran below 80 % of rated speed.
[[nodiscard]] double fractionBelow(const PerfTrace& trace, double threshold);

}  // namespace dds

// Order statistics for host timings, and the rule that decides which
// percentiles a sample supports.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least `pct`
/// percent of the sample at or below it. `pct` in [1, 100]; the sample
/// must be non-empty.
[[nodiscard]] double percentile(std::vector<double> values, unsigned pct);

/// How many samples of a size-`n` sample lie strictly beyond the
/// nearest-rank `pct` percentile.
[[nodiscard]] std::size_t samplesBeyond(std::size_t n, unsigned pct);

/// A percentile is reported only when at least ten samples lie beyond it.
[[nodiscard]] bool percentileSupported(std::size_t n, unsigned pct);

[[nodiscard]] double median(std::vector<double> values);

/// Harrell-Davis estimate of the `pct` percentile: the mean of all order
/// statistics weighted by a Beta(p(n+1), (1-p)(n+1)) distribution, with
/// p = pct / 100. It reads the same quantity as `percentile` with a far
/// smaller spread, since no single sample decides it. `pct` in [1, 99];
/// the sample must be non-empty.
[[nodiscard]] double harrellDavis(std::vector<double> values, unsigned pct);

}  // namespace perfbench

// Seeded v1 job-spec streams for the campaign-service benchmark.
//
// Each workload is a fixed grid: the full cross of its graphs, profiles,
// rates and cloud settings, each cell run under a fixed list of policies.
// The workload seed permutes the order of the cells, picks every cell's
// simulation seed and, on sweep, deals the chain lengths. Every seed thus
// yields the same mix of job sizes (comparable host timings) over
// different inputs. The spec text is written here, not by
// dds::JobSpec::toJson, so the stream's bytes depend only on the seed and
// never on the library version under test.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload { Sweep, Elastic, Event };

/// Parse a workload name ("sweep", "elastic", "event").
[[nodiscard]] std::optional<Workload> parseWorkload(std::string_view name);

[[nodiscard]] std::string_view workloadName(Workload workload);

/// The job-spec lines of one stream, one compact JSON object per line.
[[nodiscard]] std::vector<std::string> generateSpecs(Workload workload,
                                                     std::uint64_t seed);

/// splitmix64: the generator's only source of randomness.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform-ish index in [0, n); n > 0.
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

}  // namespace perfbench

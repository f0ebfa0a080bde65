// Trace replay over live VM instances (paper §8.1).
//
// "For individual experimental runs, we assign a random time period from
// the traces for each active VM to replay. We then multiply that
// coefficient with the rated performance of the active VM to obtain its
// instantaneous runtime performance."
//
// The replayer owns pools of CPU / latency / bandwidth coefficient traces
// and assigns each VM (or unordered VM pair) a trace plus a replay offset
// as a pure function of (seed, coefficient family, VM | pair) — stateless
// splitmix64 hashing, as FaultPlan derives its events — so a coefficient
// never depends on which other VMs or pairs were queried before it.
// Multiplying by rated specs is the MonitoringService's job.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dds/common/ids.hpp"
#include "dds/common/time.hpp"
#include "dds/trace/perf_trace.hpp"
#include "dds/trace/trace_gen.hpp"

namespace dds {

/// A coefficient plus the time at which it must be re-queried: the value
/// is exact (zero-order hold) for every query in [query time, valid_until).
struct CoeffSample {
  double value = 1.0;
  SimTime valid_until = 0.0;
};

/// The immutable trace arena a replayer reads from. Generating these
/// pools dominates replayer construction cost, so a campaign substrate
/// builds one arena per generation seed and shares it read-only across
/// every job with that seed.
struct TracePools {
  std::vector<PerfTrace> cpu;
  std::vector<PerfTrace> latency;
  std::vector<PerfTrace> bandwidth;
};

/// Deterministic, immutable per-VM and per-VM-pair coefficient source.
class TraceReplayer {
 public:
  TraceReplayer(std::vector<PerfTrace> cpu_pool,
                std::vector<PerfTrace> latency_pool,
                std::vector<PerfTrace> bandwidth_pool, std::uint64_t seed);

  /// A replayer whose every coefficient is exactly 1.0 (no variability).
  static TraceReplayer ideal();

  /// Pools generated with the FutureGrid-like parameters from trace_gen.
  /// `duration_s` should cover the longest experiment (traces wrap).
  static TraceReplayer futureGridLike(std::uint64_t seed,
                                      SimTime duration_s = 4.0 * 24.0 *
                                                           kSecondsPerHour,
                                      SimTime sample_period_s = 300.0,
                                      std::size_t pool_size = 8);

  /// The pool set futureGridLike(seed, ...) would generate, as a shared
  /// immutable arena. overPools(makeFutureGridPools(seed), seed) is
  /// bit-identical to futureGridLike(seed) without regenerating the pools
  /// per job.
  static std::shared_ptr<const TracePools> makeFutureGridPools(
      std::uint64_t seed,
      SimTime duration_s = 4.0 * 24.0 * kSecondsPerHour,
      SimTime sample_period_s = 300.0, std::size_t pool_size = 8);

  /// A replayer reading a shared arena. `run_seed` is the experiment
  /// seed; the assignment-seed derivation matches futureGridLike.
  static TraceReplayer overPools(std::shared_ptr<const TracePools> pools,
                                 std::uint64_t run_seed);

  /// Observed-to-rated CPU speed coefficient for one VM at time `t`, plus
  /// its zero-order-hold validity window: callers may cache the value for
  /// any t' in [t, valid_until).
  [[nodiscard]] CoeffSample cpuCoeffSample(VmId vm, SimTime t) const;

  /// Observed-to-nominal latency coefficient between two distinct VMs
  /// (symmetric in a, b).
  [[nodiscard]] CoeffSample latencyCoeffSample(VmId a, VmId b,
                                               SimTime t) const;

  /// Observed-to-rated bandwidth coefficient between two distinct VMs
  /// (symmetric in a, b).
  [[nodiscard]] CoeffSample bandwidthCoeffSample(VmId a, VmId b,
                                                 SimTime t) const;

 private:
  TraceReplayer(std::shared_ptr<const TracePools> pools,
                std::uint64_t assignment_seed);

  /// The sample of `key`'s assigned trace in `pool` at time `t`.
  [[nodiscard]] CoeffSample sample(const std::vector<PerfTrace>& pool,
                                   std::uint64_t family, std::uint64_t key,
                                   SimTime t) const;
  static std::uint64_t pairKey(VmId a, VmId b);

  // Shared immutable arena; may be referenced by sibling jobs.
  std::shared_ptr<const TracePools> pools_;
  std::uint64_t seed_;
};

}  // namespace dds

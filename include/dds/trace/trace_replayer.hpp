// Trace replay over live VM instances (paper §8.1).
//
// "For individual experimental runs, we assign a random time period from
// the traces for each active VM to replay. We then multiply that
// coefficient with the rated performance of the active VM to obtain its
// instantaneous runtime performance."
//
// As in the paper, there is one fixed trace set: the FutureGrid-like
// corpus, 4 days of CPU / latency / bandwidth coefficient traces generated
// once per process from a fixed seed and shared read-only by every run.
// The run seed only picks the windows: each VM (or unordered VM pair) gets
// a corpus trace plus a replay offset as a pure function of (run seed,
// coefficient family, VM | pair) — stateless splitmix64 hashing, as
// FaultPlan derives its events — so a coefficient never depends on which
// other VMs or pairs were queried before it. Multiplying by rated specs is
// the MonitoringService's job.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dds/common/ids.hpp"
#include "dds/common/time.hpp"
#include "dds/trace/perf_trace.hpp"

namespace dds {

/// An immutable set of coefficient traces, one pool per family.
struct TraceCorpus {
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

  /// Random windows into the FutureGrid-like corpus, hashed with `seed`.
  static TraceReplayer futureGridLike(std::uint64_t seed);

  /// The corpus futureGridLike replays: 32 traces per family, 4 days at a
  /// 300 s sample period (trace_gen parameters). Built on first use —
  /// thread-safely, from a fixed seed — and kept for the process lifetime.
  static std::shared_ptr<const TraceCorpus> futureGridCorpus();

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
  TraceReplayer(std::shared_ptr<const TraceCorpus> corpus,
                std::uint64_t seed);

  /// The sample of `key`'s assigned trace in `pool` at time `t`.
  [[nodiscard]] CoeffSample sample(const std::vector<PerfTrace>& pool,
                                   std::uint64_t family, std::uint64_t key,
                                   SimTime t) const;
  static std::uint64_t pairKey(VmId a, VmId b);

  // Immutable; the FutureGrid corpus is shared by every replayer.
  std::shared_ptr<const TraceCorpus> corpus_;
  std::uint64_t seed_;
};

}  // namespace dds

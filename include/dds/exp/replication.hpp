// Replicated experiment runs for statistical confidence.
//
// The §8 results are single trajectories of a stochastic system (traces,
// random-walk rates, replay-window draws all depend on the seed). This
// harness re-runs one configuration across seeds and reports mean/stddev
// of every headline metric plus how often the throughput constraint was
// violated — the error bars the paper's figures do not show.
//
// Runs fan out across a work-stealing thread pool (see campaign.hpp);
// aggregation happens in seed order, so the statistics are bit-identical
// for any worker count.
#pragma once

#include <cstddef>

#include "dds/common/stats.hpp"
#include "dds/core/engine.hpp"

namespace dds {

/// Aggregates of `runs` independent seeds of one (config, policy) pair.
struct ReplicatedResult {
  std::string scheduler_name;
  std::size_t runs = 0;
  RunningStats omega;
  RunningStats gamma;
  RunningStats cost;
  RunningStats theta;
  std::size_t constraint_violations = 0;

  /// Fraction of seeds that met the Omega constraint.
  [[nodiscard]] double successRate() const {
    return runs == 0 ? 0.0
                     : 1.0 - static_cast<double>(constraint_violations) /
                                 static_cast<double>(runs);
  }
};

/// Run `kind` under `base` once per seed in [base.seed, base.seed + runs),
/// across `jobs` worker threads (0 = hardware concurrency, 1 = serial).
/// The aggregates are identical for every `jobs` value.
[[nodiscard]] ReplicatedResult runReplicated(const Dataflow& dataflow,
                                             ExperimentConfig base,
                                             const SchedulerSpec& kind,
                                             std::size_t runs,
                                             std::size_t jobs = 0);

}  // namespace dds

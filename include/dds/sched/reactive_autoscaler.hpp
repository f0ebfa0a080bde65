// Reactive queue-threshold autoscaler — a related-work baseline.
//
// Systems the paper compares against conceptually (Esc, StreamCloud-style
// operator scaling) auto-scale from *local queue pressure* alone: no
// dataflow model, no alternates, no cost/value objective, no awareness of
// cloud performance variability. This baseline reproduces that behaviour:
//  * deploy: best-value alternates, one core per PE (cold start);
//  * every interval: a PE whose backlog-per-core exceeds a high watermark
//    gets one more core; a PE that has been idle-ish (tiny backlog, full
//    relative throughput) for `cooldown` consecutive intervals loses one;
//  * empty VMs are released immediately (no billing-boundary awareness).
// Benches use it to quantify what the paper's model-driven heuristics add.
#pragma once

#include "dds/sched/allocation.hpp"
#include "dds/sched/scheduler.hpp"

namespace dds {

/// Thresholds for the reactive baseline.
struct ReactiveOptions {
  double backlog_hi_per_core = 60.0;  ///< msgs/core that triggers growth.
  double backlog_lo_per_core = 5.0;   ///< msgs/core considered idle.
  int cooldown_intervals = 3;         ///< idle intervals before shrinking.

  void validate() const {
    DDS_REQUIRE(backlog_hi_per_core > backlog_lo_per_core,
                "watermarks out of order");
    DDS_REQUIRE(backlog_lo_per_core >= 0.0, "low watermark negative");
    DDS_REQUIRE(cooldown_intervals >= 1, "cooldown must be positive");
  }
};

/// Model-free reactive scaling baseline.
class ReactiveAutoscaler final : public Scheduler {
 public:
  ReactiveAutoscaler(SchedulerEnv env, ReactiveOptions options = {});

  [[nodiscard]] Deployment deploy(double estimated_input_rate) override;

  std::vector<MigrationEvent> adapt(const ObservedState& state,
                                    Deployment& deployment) override;

 private:
  SchedulerEnv env_;
  ReactiveOptions options_;
  ResourceAllocator allocator_;
  std::vector<int> idle_streak_;  ///< consecutive idle intervals per PE.
};

}  // namespace dds

// The paper's deployment and runtime-adaptation heuristics (§7, Alg. 1-2).
//
// One class covers the whole §8 evaluation matrix:
//  * Strategy::Local / Strategy::Global — the Table 1 function variants;
//  * the SchedulerSpec mode — continuous re-deployment (Adaptive), the
//    static baselines (Static), alternates fixed at the best-value one
//    (NoDyn, §8.2's "without application dynamism"), or adaptive plus
//    forecast-driven pre-acquisition (Predictive).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dds/sched/allocation.hpp"
#include "dds/sched/alternate_selection.hpp"
#include "dds/sched/lookahead_planner.hpp"
#include "dds/sched/scheduler.hpp"

namespace dds {

/// The heuristic's tuning knobs. ExperimentConfig composes this struct as
/// `heuristic`, and the scheduler reads it as it is.
struct HeuristicConfig {
  /// n_a: alternate-selection stage period, in intervals (§7.2 runs the
  /// two stages at different cadences to balance value against cost).
  IntervalIndex alternate_period = 2;
  /// n_r: resource-allocation stage period, in intervals.
  IntervalIndex resource_period = 1;
  /// Latency SLA, seconds: when > 0, a PE whose backlog would take longer
  /// than this to drain triggers a scale-out sized to drain it in time —
  /// the latency QoS of the paper's intro. 0 = throughput only (Alg. 2).
  double max_queue_delay_s = 0.0;
  /// Alg. 1 buys the largest class, which backfires on menus mixing
  /// price-per-power tiers; CheapestPower is the fix. C++ only.
  ResourceAllocator::AcquisitionPolicy acquisition =
      ResourceAllocator::AcquisitionPolicy::LargestFirst;
  /// Ablation: the global strategy's deployment-time repacking (RepackPE
  /// + iterative repacking, Table 1). C++ only.
  bool enable_repacking = true;
  /// Ablation: force a VM release policy instead of the strategy default
  /// (local = immediate, global = at the paid hour boundary). C++ only.
  std::optional<ResourceAllocator::ReleasePolicy> release_policy_override =
      std::nullopt;
  /// Predictive mode: a forecast peak must exceed the current rate by this
  /// fraction to trigger pre-acquisition (and to hold off scale-in).
  double preacquire_margin = 0.1;
  /// Predictive mode: score alternates by mean Theta over the whole
  /// forecast vector (LookaheadPlanner), not the last interval only.
  bool lookahead_alternates = true;

  /// Append one message per invalid field to `errors` (never throws).
  void appendErrors(std::vector<std::string>& errors) const;

  bool operator==(const HeuristicConfig&) const = default;
};

/// Local/global deployment + adaptation heuristic (Alg. 1 + Alg. 2).
class HeuristicScheduler final : public Scheduler {
 public:
  /// The engine derives the last two from the elasticity model: the share
  /// of fresh acquisitions steered to the spot tier (0 without one; each
  /// choice hashes SchedulerEnv::seed), and how far ahead the predictive
  /// resource phase scans the forecast for peaks (the worst-case mean
  /// provisioning delay, so VMs ordered now are ready when a peak lands).
  HeuristicScheduler(SchedulerEnv env, Strategy strategy,
                     SchedulerSpec::Mode mode = SchedulerSpec::Mode::Adaptive,
                     HeuristicConfig config = {},
                     ResilienceConfig resilience = {},
                     double spot_fraction = 0.0,
                     double preacquire_lead_s = 0.0);

  [[nodiscard]] Deployment deploy(double estimated_input_rate) override;

  std::vector<MigrationEvent> adapt(const ObservedState& state,
                                    Deployment& deployment) override;

  [[nodiscard]] SchedulerTelemetry telemetry() const override;

 private:
  /// Predictive alternate selection: greedy lookahead over the forecast
  /// vector (mean Theta across the horizon, via LookaheadPlanner);
  /// applies the winning switches and emits one decision event carrying
  /// the achieved score.
  void lookaheadPhase(const ObservedState& state, Deployment& deployment);

  /// Predictive pre-acquisition: scan the forecast up to the lead window
  /// for a peak exceeding the current rate by the margin; when found,
  /// scale out against the peak now so provisioning-delayed VMs are
  /// ready when it lands. Returns how many VMs were acquired (and
  /// whether a peak is pending, via the out-parameter, so the caller can
  /// hold off scale-in).
  int preacquireForForecast(const ObservedState& state,
                            const Deployment& deployment,
                            const CorePowerFn& power, bool& peak_pending);

  /// Alg. 2 alternate-selection phase. Builds the feasible set from the
  /// observed instantaneous throughput (underprovisioned -> alternates
  /// needing at most the active one's cost; overprovisioned -> at least),
  /// ranks by value/cost under the strategy, switches to the best that
  /// fits in the currently free resources.
  void alternatePhase(const ObservedState& state, Deployment& deployment);

  /// Alg. 2 resource re-deployment phase: incremental scale-out when the
  /// throughput constraint is in danger, scale-in plus (policy-dependent)
  /// empty-VM release when comfortably over-provisioned.
  std::vector<MigrationEvent> resourcePhase(const ObservedState& state,
                                            Deployment& deployment);

  /// Core-power estimator for the runtime phases: the EWMA probe history
  /// when the environment provides one, raw observed power otherwise.
  [[nodiscard]] CorePowerFn runtimePowerFn(SimTime now) const;

  /// Per-PE arrival rates as the *local* strategy sees them: last
  /// interval's measured per-PE arrival rates.
  /// Before any measurement exists it falls back to the graph prediction.
  [[nodiscard]] std::vector<double> measuredArrivals(
      const ObservedState& state, const Deployment& deployment) const;

  /// Probe the straggler guard; evacuate and release any VM that crossed
  /// the quarantine bar, then force a scale-out to replace its capacity.
  /// Appends the evacuation backlog moves to `migrations`.
  void quarantineStragglers(const ObservedState& state,
                            const Deployment& deployment,
                            std::vector<MigrationEvent>& migrations);

  /// Drain-and-migrate on preemption notice: release every spot VM the
  /// provider flagged as imminent (migrating its buffered share instead
  /// of losing it to the reclaim), then pre-acquire reliable replacement
  /// capacity with the spot tier suppressed.
  void drainPreemptionNotices(const ObservedState& state,
                              const Deployment& deployment,
                              std::vector<MigrationEvent>& migrations);

  /// Whether replacement capacity is still on order: any active VM not yet
  /// ready, or the allocator backing off after rejected acquisitions.
  [[nodiscard]] bool capacityPending(SimTime now) const;

  SchedulerEnv env_;
  Strategy strategy_;
  SchedulerSpec::Mode mode_;
  HeuristicConfig config_;
  ResilienceConfig resilience_;
  double preacquire_lead_s_;
  ResourceAllocator allocator_;
  std::unique_ptr<StragglerGuard> guard_;
  std::unique_ptr<LookaheadPlanner> lookahead_;  ///< built on first use.
  int graceful_degradations_ = 0;
  int preemption_drains_ = 0;
};

}  // namespace dds

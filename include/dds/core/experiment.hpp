// Experiment configuration and results — the public surface the examples
// and the benchmark harness drive.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dds/common/time.hpp"
#include "dds/forecast/forecaster.hpp"
#include "dds/metrics/run_metrics.hpp"
#include "dds/obs/metrics_registry.hpp"
#include "dds/sched/scheduler.hpp"
#include "dds/sim/simulator.hpp"
#include "dds/workload/rate_profile.hpp"

namespace dds {

/// Which simulator executes the run.
enum class SimBackend {
  Fluid,  ///< steady-state per-interval rates (fast; the §8 default).
  Event,  ///< message-level discrete events (adds latency percentiles).
};

[[nodiscard]] std::string toString(SimBackend backend);

/// Ceiling on WorkloadConfig::mean_rate, msgs/s: 20x the paper's highest
/// rate (50 msgs/s, §8). Simulation cost grows about quadratically with
/// the rate (the deployment's core count grows linearly, and so does each
/// scale-out's iteration bound): a 0.05 h paper-graph run at the ceiling
/// takes under 0.5 s per scheduler on one core of a 4-core Xeon, four
/// schedulers at 1e4 msgs/s took ~29 s, and 1e300 used to fail inside
/// the allocator.
inline constexpr double kMaxMeanRate = 1000.0;

/// What the dataflow ingests: rate profile shape and message geometry
/// (§8.1-8.2), plus whether the cloud replays FutureGrid-like traces.
struct WorkloadConfig {
  double mean_rate = 5.0;  ///< msgs/s (2..50 in §8); <= kMaxMeanRate.
  ProfileKind profile = ProfileKind::Constant;
  double msg_size_bytes = 100.0e3;
  bool infra_variability = false;  ///< replay FutureGrid-like traces?

  /// Append one message per invalid field to `errors` (never throws).
  void appendErrors(std::vector<std::string>& errors) const;

  bool operator==(const WorkloadConfig&) const = default;
};

/// Injected cloud turbulence (all families default off; fluid-only).
struct FaultConfig {
  /// Mean time between failures per VM, hours; 0 disables fault injection
  /// (§9 future work: fault tolerance via re-allocation and alternates).
  double vm_mtbf_hours = 0.0;
  /// Degraded-VM (straggler) episodes: mean time between episodes per VM,
  /// hours; 0 disables. During an episode the VM's observed core power
  /// drops to `straggler_factor` of its trace-modulated value for
  /// `straggler_duration_s` seconds.
  double straggler_mtbf_hours = 0.0;
  double straggler_factor = 0.3;
  double straggler_duration_s = 600.0;
  /// Probability the provider rejects one acquisition attempt; 0 disables.
  /// (Provisioning lag lives in ElasticityConfig.)
  double acquisition_failure_prob = 0.0;
  /// Transient network partitions: mean time between partition episodes
  /// per VM pair, hours; 0 disables. A partitioned pair sees zero
  /// bandwidth and effectively infinite latency for
  /// `partition_duration_s` seconds.
  double partition_mtbf_hours = 0.0;
  double partition_duration_s = 120.0;

  /// Whether any fault family is switched on.
  [[nodiscard]] bool anyEnabled() const;

  void appendErrors(std::vector<std::string>& errors) const;

  bool operator==(const FaultConfig&) const = default;
};

/// Rapid-elasticity realism knobs (all default off; delays and spot are
/// fluid-only like the fault families, migration downtime works on both
/// backends). Disabled, runs are bit-identical to the ideal cloud.
struct ElasticityConfig {
  /// Mean exponential provisioning lag between acquire and the VM coming
  /// online, seconds; the per-core term adds class dependence
  /// (mean = base + per_core * (cores - 1)). 0/0 = instant delivery.
  /// Billing starts at acquisition either way — provisioning is paid for.
  double provisioning_delay_s = 0.0;
  double provisioning_delay_per_core_s = 0.0;
  /// Spot market: discount in (0, 1) on the on-demand price (0 disables
  /// the spot tier entirely), mean time between provider reclamations
  /// per spot VM in hours, and the warning-notice lead time in seconds.
  double spot_discount = 0.0;
  double spot_preemption_mtbf_h = 0.0;
  double spot_notice_s = 120.0;
  /// Fraction of the heuristic allocator's acquisitions steered to the
  /// spot tier when one exists (seed-deterministic per acquisition).
  double spot_fraction = 1.0;
  /// Per-PE buffered state, MB; on migration (scale-in, quarantine,
  /// preemption drain) the moved share pauses service while it transfers
  /// at `migration_bandwidth_mbps`. 0 = instant migration.
  double pe_state_mb = 0.0;
  double migration_bandwidth_mbps = 100.0;

  [[nodiscard]] bool delaysEnabled() const {
    return provisioning_delay_s > 0.0 || provisioning_delay_per_core_s > 0.0;
  }
  [[nodiscard]] bool spotEnabled() const { return spot_discount > 0.0; }
  [[nodiscard]] bool migrationEnabled() const { return pe_state_mb > 0.0; }
  [[nodiscard]] bool anyEnabled() const {
    return delaysEnabled() || spotEnabled() || migrationEnabled();
  }

  void appendErrors(std::vector<std::string>& errors) const;

  bool operator==(const ElasticityConfig&) const = default;
};

/// Scheduler-side responses to cloud turbulence (see
/// dds/sched/resilience.hpp). Quarantine threshold 0 disables the
/// straggler guard.
struct ResilienceConfig {
  double quarantine_threshold = 0.0;
  int quarantine_probes = 3;
  int acquisition_max_retries = 3;
  double acquisition_backoff_s = 60.0;
  bool graceful_degradation = false;

  void appendErrors(std::vector<std::string>& errors) const;

  bool operator==(const ResilienceConfig&) const = default;
};

/// Rate forecasting + predictive scheduling (default off; both backends).
/// Off, runs are bit-identical to reactive: no forecaster is built,
/// schedulers see a null forecast pointer.
struct ForecastConfig {
  /// Which model predicts future input rates (see dds/forecast):
  /// Off disables the subsystem entirely.
  ForecastModel model = ForecastModel::Off;
  /// How many intervals ahead each forecast covers. The predictive
  /// schedulers score alternates over this whole vector and scan it
  /// (bounded by the pre-acquisition lead) for peaks.
  int horizon_intervals = 5;
  /// Model parameters (see ForecastOptions for semantics).
  double ewma_alpha = 0.3;
  double hw_alpha = 0.3;
  double hw_beta = 0.05;
  double hw_gamma = 0.3;
  int hw_season_intervals = 30;
  /// A predicted peak must exceed the current rate by this fraction
  /// before the scheduler pre-acquires (and holds off scale-in).
  double preacquire_margin = 0.1;
  /// Score alternate switches against the whole forecast vector (mean
  /// Theta) instead of the last observed interval only.
  bool lookahead_alternates = true;

  [[nodiscard]] bool enabled() const { return model != ForecastModel::Off; }

  void appendErrors(std::vector<std::string>& errors) const;

  bool operator==(const ForecastConfig&) const = default;
};

/// One experiment run's knobs (§8.1-8.2 defaults). Workload, fault and
/// resilience knobs live in nested sub-structs; the remaining fields are
/// the engine-level controls.
struct ExperimentConfig {
  SimTime horizon_s = 1.0 * kSecondsPerHour;  ///< optimization period T.
  SimTime interval_s = 60.0;                  ///< adaptation interval.
  std::uint64_t seed = 42;
  double omega_target = 0.7;  ///< Omega-hat (§8.2).
  double epsilon = 0.05;      ///< tolerance (§8.2).
  IntervalIndex alternate_period = 2;  ///< n_a for Alg. 2.
  IntervalIndex resource_period = 1;   ///< n_r for Alg. 2.
  /// Negative means "derive sigma from the §8.2 pricing expectation".
  double sigma_override = -1.0;
  /// EWMA weight for the monitoring probes the schedulers plan against;
  /// 1.0 = react to raw instantaneous probes (the default behaviour).
  double power_smoothing_alpha = 1.0;
  /// Racks in the simulated data center; 0 disables spatial placement
  /// effects (every VM pair sees the same rated network).
  int placement_racks = 0;
  /// Resource-class catalog: "m1" (the §8.1 default), "m3", or "mixed".
  std::string catalog = "m1";
  /// Buy the cheapest-per-power class instead of Alg. 1's largest-first
  /// (an improvement that matters on mixed-generation catalogs).
  bool cheapest_class_acquisition = false;
  /// Simulator backend. The event backend additionally reports end-to-end
  /// latency percentiles; fault injection is fluid-only for now.
  SimBackend backend = SimBackend::Fluid;
  /// Queue-delay SLA for the heuristic schedulers (seconds; 0 disables):
  /// any PE whose backlog would take longer than this to drain triggers a
  /// scale-out sized to drain it — bounds latency, costs capacity.
  double max_queue_delay_s = 0.0;

  WorkloadConfig workload;
  FaultConfig faults;
  ElasticityConfig elasticity;
  ResilienceConfig resilience;
  ForecastConfig forecast;

  /// Every validation error in the config, one message per field; empty
  /// when the config is valid. Unlike a fail-fast check this reports ALL
  /// problems at once, so a user fixes a config file in one round trip.
  [[nodiscard]] std::vector<std::string> validationErrors() const;

  /// Throws PreconditionError listing every invalid field; no-op when
  /// valid.
  void validate() const;

  /// Memberwise equality — what campaign config interning dedupes on.
  bool operator==(const ExperimentConfig&) const = default;
};

/// Summary of a run, plus the full interval series.
struct ExperimentResult {
  std::string scheduler_name;
  RunResult run;
  double sigma = 0.0;
  double average_omega = 0.0;
  double average_gamma = 0.0;
  double total_cost = 0.0;
  double theta = 0.0;
  bool constraint_met = false;
  int peak_vms = 0;
  int peak_cores = 0;
  int vm_failures = 0;          ///< crashes injected during the run.
  int preemptions = 0;          ///< spot VMs reclaimed by the provider.
  double messages_lost = 0.0;   ///< queued messages lost to crashes.
  /// Fault-recovery metrics against Omega-hat (meaningful when any fault
  /// family is enabled; availability is 1.0 on a clean run).
  RecoveryStats recovery;
  /// Resilience counters from the scheduler (zero for policies without a
  /// resilience layer) and the provider's global rejection count.
  SchedulerTelemetry resilience;
  int acquisition_rejections = 0;  ///< provider-wide rejected attempts.
  /// Filled by the event backend only (zero under the fluid backend):
  std::size_t messages_delivered = 0;
  double latency_mean_s = 0.0;
  double latency_p50_s = 0.0;
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
  /// Observability counters/gauges/histograms the run accumulated
  /// (see dds/obs/metrics_registry.hpp); name-sorted.
  obs::MetricsSnapshot metrics;
};

}  // namespace dds

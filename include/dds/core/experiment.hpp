// Experiment configuration and results — the public surface the examples
// and the benchmark harness drive.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dds/common/time.hpp"
#include "dds/faults/fault_plan.hpp"
#include "dds/forecast/forecaster.hpp"
#include "dds/metrics/run_metrics.hpp"
#include "dds/obs/metrics_registry.hpp"
#include "dds/sched/heuristic_scheduler.hpp"
#include "dds/sched/resilience.hpp"
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

/// One experiment run's knobs (§8.1-8.2 defaults). The sub-structs are
/// declared by the modules that read them — HeuristicConfig and
/// ResilienceConfig in dds/sched, FaultConfig and ElasticityConfig in
/// dds/faults, ForecastConfig in dds/forecast — and reach them as they
/// are; the remaining fields are the engine-level controls.
struct ExperimentConfig {
  SimTime horizon_s = 1.0 * kSecondsPerHour;  ///< optimization period T.
  SimTime interval_s = 60.0;                  ///< adaptation interval.
  std::uint64_t seed = 42;
  double omega_target = 0.7;  ///< Omega-hat (§8.2).
  double epsilon = 0.05;      ///< tolerance (§8.2).
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
  /// Simulator backend. The event backend additionally reports end-to-end
  /// latency percentiles; fault injection is fluid-only for now.
  SimBackend backend = SimBackend::Fluid;

  WorkloadConfig workload;
  HeuristicConfig heuristic;
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

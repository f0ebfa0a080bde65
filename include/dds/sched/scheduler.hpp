// Scheduler interface (paper §5-7).
//
// A Scheduler makes the two families of decisions the optimization problem
// (§6) exposes as control parameters:
//  * deploy()  — before t0: pick the initial alternate A_i^j for every PE,
//                acquire VMs, and allocate cores, based on the *estimated*
//                input rate and rated VM performance;
//  * adapt()   — at the start of each interval: react to the observed input
//                rates and observed VM performance by switching alternates,
//                scaling cores in/out, acquiring/releasing VMs.
// Schedulers mutate the CloudProvider (the core-allocation ledger) and the
// Deployment (active alternates) directly; queue state belongs to the
// simulator, so VM releases that strand buffered messages are reported as
// MigrationEvents for the engine to apply.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dds/cloud/cloud_provider.hpp"
#include "dds/common/time.hpp"
#include "dds/dataflow/dataflow.hpp"
#include "dds/metrics/run_metrics.hpp"
#include "dds/monitor/monitoring.hpp"
#include "dds/monitor/probe_history.hpp"
#include "dds/obs/metrics_registry.hpp"
#include "dds/obs/trace_sink.hpp"
#include "dds/sched/alternate_selection.hpp"
#include "dds/sched/resilience.hpp"
#include "dds/sim/deployment.hpp"
#include "dds/sim/simulator.hpp"

namespace dds {

struct HeuristicConfig;
struct PlanStructure;

/// Which §8 policy an experiment runs, composed the way the paper builds
/// its policies (Table 1, §7): either the local/global heuristic in one
/// mode, or one of the standalone planners. parseScheduler() and
/// schedulerName() map specs to and from their CLI/config names.
struct SchedulerSpec {
  enum class Family { Heuristic, BruteForce, Annealing, Reactive };
  enum class Mode {
    Adaptive,    ///< continuous re-deployment (Alg. 2).
    Static,      ///< deploy once.
    NoDyn,       ///< adaptive, alternates fixed (no application dynamism).
    Predictive,  ///< adaptive + forecast-driven pre-acquisition.
  };
  Family family = Family::Heuristic;
  Strategy strategy = Strategy::Global;  ///< heuristic family only.
  Mode mode = Mode::Adaptive;            ///< heuristic family only.

  bool operator==(const SchedulerSpec&) const = default;
};

/// Everything a scheduler needs to see and touch, wired once per run.
struct SchedulerEnv {
  const Dataflow* dataflow = nullptr;
  CloudProvider* cloud = nullptr;
  const MonitoringService* monitor = nullptr;
  /// Optional EWMA probe history; when set, runtime phases plan against
  /// smoothed core-power estimates instead of raw instantaneous probes.
  const ProbeHistory* probes = nullptr;
  SimConfig sim_config;
  double omega_target = 0.7;   ///< Omega-hat, the §8.2 default.
  double epsilon = 0.05;       ///< throughput tolerance (§8.2).
  double sigma = 0.0;          ///< value/cost equivalence factor (§6).
  SimTime horizon_s = 3600.0;  ///< optimization period T plans bill.
  std::uint64_t seed = 42;     ///< run seed (spot choices, annealing).
  /// Run tracer (null by default); schedulers emit decision, alternate-
  /// switch and straggler events through it.
  obs::Tracer tracer;
  /// Optional run metrics; schedulers bump named counters when set.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional prebuilt planner closure for this exact (dataflow, catalog)
  /// pair; search planners reuse it per deploy instead of re-extracting
  /// the tables. Immutable, safely shared across concurrent jobs.
  std::shared_ptr<const PlanStructure> plan_structure;

  void validate() const {
    DDS_REQUIRE(dataflow != nullptr, "scheduler env needs a dataflow");
    DDS_REQUIRE(cloud != nullptr, "scheduler env needs a cloud provider");
    DDS_REQUIRE(monitor != nullptr, "scheduler env needs monitoring");
    DDS_REQUIRE(omega_target > 0.0 && omega_target <= 1.0,
                "omega target out of range");
    DDS_REQUIRE(epsilon >= 0.0 && epsilon < 1.0, "epsilon out of range");
    DDS_REQUIRE(sigma >= 0.0, "sigma must be non-negative");
    DDS_REQUIRE(horizon_s > 0.0, "horizon must be positive");
  }

  /// `*this` once validate() passed: constructors whose members bind
  /// *dataflow or *cloud initialize from it, so a null env throws first.
  [[nodiscard]] const SchedulerEnv& validated() const {
    validate();
    return *this;
  }
};

/// What the monitoring framework reported for the last interval.
struct ObservedState {
  IntervalIndex interval = 0;   ///< the interval about to start.
  SimTime now = 0.0;            ///< its start time.
  double input_rate = 0.0;      ///< observed external rate, msgs/s.
  double average_omega = 1.0;   ///< Omega-bar so far (constraint tracker).
  const IntervalMetrics* last_interval = nullptr;  ///< may be null at t0.
  /// Predicted external rates for intervals [interval, interval + H)
  /// when the engine runs a forecaster; null otherwise (the default — so
  /// reactive runs stay bit-identical to the pre-forecast behaviour).
  const std::vector<double>* forecast = nullptr;
};

/// Buffered messages stranded on a released VM; the engine forwards this
/// to DataflowSimulator::migrateBacklog.
struct MigrationEvent {
  PeId pe;
  double backlog_fraction = 0.0;
};

/// Resilience counters a scheduler exposes for the run result (all zero
/// for policies without a resilience layer).
struct SchedulerTelemetry {
  int stragglers_quarantined = 0;   ///< VMs blacklisted and evacuated.
  int graceful_degradations = 0;    ///< off-cadence alternate downgrades.
  int acquisition_rejections = 0;   ///< acquisition attempts the provider
                                    ///< rejected against this scheduler.
  int preemption_drains = 0;        ///< spot VMs evacuated on notice.
};

/// Abstract deployment + runtime-adaptation policy.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Initial deployment before t0 (paper Alg. 1). Returns the alternate
  /// assignment; VM/core state is left in the CloudProvider.
  [[nodiscard]] virtual Deployment deploy(double estimated_input_rate) = 0;

  /// Runtime adaptation at the start of an interval (paper Alg. 2).
  /// Static policies keep the default no-op.
  virtual std::vector<MigrationEvent> adapt(const ObservedState& state,
                                            Deployment& deployment) {
    (void)state;
    (void)deployment;
    return {};
  }

  /// Resilience counters accumulated so far (default: none).
  [[nodiscard]] virtual SchedulerTelemetry telemetry() const { return {}; }
};

// ---------------------------------------------------------------------------
// Scheduler registry: the one place that knows every concrete policy.
// ---------------------------------------------------------------------------

/// Canonical CLI/config name of a policy: a heuristic is its strategy
/// plus its mode suffix ("global", "local-static", "global-nodyn",
/// "local-predictive"); a planner is its family name
/// ("brute-force-static", "annealing-static", "reactive-autoscaler").
[[nodiscard]] std::string schedulerName(const SchedulerSpec& spec);

/// Inverse of schedulerName(); throws PreconditionError on any other
/// name.
[[nodiscard]] SchedulerSpec parseScheduler(const std::string& name);

/// Every valid spec, in a fixed order — for sweeps and --help.
[[nodiscard]] const std::vector<SchedulerSpec>& allSchedulers();

/// Build the scheduler `spec` names against `env`. The rest goes to the
/// heuristic family (see HeuristicScheduler's constructor); the planners
/// read sigma, T and the seed from `env`.
[[nodiscard]] std::unique_ptr<Scheduler> makeScheduler(
    const SchedulerSpec& spec, const SchedulerEnv& env,
    const HeuristicConfig& heuristic, const ResilienceConfig& resilience,
    double spot_fraction, double preacquire_lead_s);

}  // namespace dds

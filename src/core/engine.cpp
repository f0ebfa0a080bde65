#include "dds/core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <type_traits>

#include "dds/cloud/cloud_provider.hpp"
#include "dds/common/stats.hpp"
#include "dds/eventsim/event_simulator.hpp"
#include "dds/faults/fault_plan.hpp"
#include "dds/monitor/monitoring.hpp"
#include "dds/sched/heuristic_scheduler.hpp"
#include "dds/sim/simulator.hpp"
#include "dds/trace/trace_replayer.hpp"

namespace dds {

std::string toString(SimBackend backend) {
  return backend == SimBackend::Fluid ? "fluid" : "event";
}

namespace {

/// The fault-family knobs of `config`, as a FaultPlanConfig.
FaultPlanConfig faultPlanConfigOf(const ExperimentConfig& config) {
  FaultPlanConfig fc;
  fc.seed = config.seed ^ 0xfa117ull;
  fc.vm_mtbf_hours = config.faults.vm_mtbf_hours;
  fc.straggler_mtbf_hours = config.faults.straggler_mtbf_hours;
  fc.straggler_factor = config.faults.straggler_factor;
  fc.straggler_duration_s = config.faults.straggler_duration_s;
  fc.acquisition_failure_prob = config.faults.acquisition_failure_prob;
  fc.provisioning_delay_s = config.elasticity.provisioning_delay_s;
  fc.provisioning_delay_per_core_s =
      config.elasticity.provisioning_delay_per_core_s;
  fc.spot_preemption_mtbf_hours = config.elasticity.spot_preemption_mtbf_h;
  fc.spot_notice_s = config.elasticity.spot_notice_s;
  fc.partition_mtbf_hours = config.faults.partition_mtbf_hours;
  fc.partition_duration_s = config.faults.partition_duration_s;
  return fc;
}

/// Seconds a PE's service pauses while `fraction` of its buffered state
/// (pe_state_mb megabytes total) migrates over the elasticity model's
/// migration bandwidth. Zero when migration cost is disabled.
double migrationDowntime(const ElasticityConfig& ec, double fraction) {
  if (!ec.migrationEnabled() || fraction <= 0.0) return 0.0;
  // MB -> megabits over Mbps gives seconds.
  return ec.pe_state_mb * fraction * 8.0 / ec.migration_bandwidth_mbps;
}

/// The resilience knobs of `config`, as scheduler ResilienceOptions.
ResilienceOptions resilienceOptionsOf(const ExperimentConfig& config) {
  ResilienceOptions ro;
  ro.acquisition_max_retries = config.resilience.acquisition_max_retries;
  ro.acquisition_backoff_s = config.resilience.acquisition_backoff_s;
  ro.straggler_threshold = config.resilience.quarantine_threshold;
  ro.straggler_probes = config.resilience.quarantine_probes;
  ro.graceful_degradation = config.resilience.graceful_degradation;
  return ro;
}

void require(std::vector<std::string>& errors, bool ok, const char* message) {
  if (!ok) errors.emplace_back(message);
}

}  // namespace

void WorkloadConfig::appendErrors(std::vector<std::string>& errors) const {
  require(errors, mean_rate > 0.0, "mean rate must be positive");
  require(errors, msg_size_bytes > 0.0, "message size must be positive");
}

bool FaultConfig::anyEnabled() const {
  return vm_mtbf_hours > 0.0 || straggler_mtbf_hours > 0.0 ||
         acquisition_failure_prob > 0.0 || partition_mtbf_hours > 0.0;
}

void FaultConfig::appendErrors(std::vector<std::string>& errors) const {
  require(errors, vm_mtbf_hours >= 0.0, "MTBF must be non-negative");
  require(errors, straggler_mtbf_hours >= 0.0,
          "straggler MTBF must be non-negative");
  require(errors, straggler_factor >= 0.0 && straggler_factor < 1.0,
          "straggler factor must be in [0, 1)");
  require(errors, straggler_mtbf_hours <= 0.0 || straggler_duration_s > 0.0,
          "straggler duration must be positive");
  require(errors,
          acquisition_failure_prob >= 0.0 && acquisition_failure_prob < 1.0,
          "acquisition failure probability must be in [0, 1)");
  require(errors, partition_mtbf_hours >= 0.0,
          "partition MTBF must be non-negative");
  require(errors, partition_mtbf_hours <= 0.0 || partition_duration_s > 0.0,
          "partition duration must be positive");
}

void ElasticityConfig::appendErrors(std::vector<std::string>& errors) const {
  require(errors, provisioning_delay_s >= 0.0,
          "elasticity provisioning delay must be non-negative");
  require(errors, provisioning_delay_per_core_s >= 0.0,
          "per-core provisioning delay must be non-negative");
  require(errors, spot_discount >= 0.0 && spot_discount < 1.0,
          "spot discount must be in [0, 1)");
  require(errors, spot_preemption_mtbf_h >= 0.0,
          "spot preemption MTBF must be non-negative");
  require(errors, spot_notice_s >= 0.0,
          "spot notice window must be non-negative");
  require(errors, spot_fraction >= 0.0 && spot_fraction <= 1.0,
          "spot fraction must be in [0, 1]");
  require(errors, spot_discount > 0.0 || spot_preemption_mtbf_h <= 0.0,
          "spot preemption requires a spot tier (set the spot discount)");
  require(errors, pe_state_mb >= 0.0,
          "per-PE state size must be non-negative");
  require(errors, migration_bandwidth_mbps > 0.0,
          "migration bandwidth must be positive");
}

void ResilienceConfig::appendErrors(std::vector<std::string>& errors) const {
  require(errors, acquisition_max_retries >= 1,
          "acquisition retries must be at least 1");
  require(errors, acquisition_backoff_s >= 0.0,
          "acquisition backoff must be non-negative");
  require(errors, quarantine_threshold >= 0.0 && quarantine_threshold < 1.0,
          "straggler threshold must be in [0, 1)");
  require(errors, quarantine_probes >= 1,
          "straggler probe count must be at least 1");
}

void ForecastConfig::appendErrors(std::vector<std::string>& errors) const {
  require(errors, horizon_intervals >= 1,
          "forecast horizon must be at least 1 interval");
  require(errors, ewma_alpha > 0.0 && ewma_alpha <= 1.0,
          "EWMA alpha must be in (0, 1]");
  require(errors, hw_alpha > 0.0 && hw_alpha <= 1.0,
          "Holt-Winters alpha must be in (0, 1]");
  require(errors, hw_beta >= 0.0 && hw_beta <= 1.0,
          "Holt-Winters beta must be in [0, 1]");
  require(errors, hw_gamma >= 0.0 && hw_gamma <= 1.0,
          "Holt-Winters gamma must be in [0, 1]");
  require(errors, hw_season_intervals >= 2,
          "Holt-Winters season must be at least 2 intervals");
  require(errors, preacquire_margin >= 0.0,
          "pre-acquisition margin must be non-negative");
}

std::vector<std::string> ExperimentConfig::validationErrors() const {
  std::vector<std::string> errors;
  require(errors, horizon_s > 0.0, "horizon must be positive");
  require(errors, interval_s > 0.0 && interval_s <= horizon_s,
          "interval must be positive and within the horizon");
  require(errors, std::isfinite(horizon_s) && std::isfinite(interval_s),
          "horizon and interval must be finite");
  if (std::isfinite(horizon_s) && interval_s > 0.0 &&
      horizon_s / interval_s > static_cast<double>(kMaxIntervalCount)) {
    errors.push_back("horizon spans more than " +
                     std::to_string(kMaxIntervalCount) + " intervals");
  }
  require(errors, omega_target > 0.0 && omega_target <= 1.0,
          "omega target out of range");
  require(errors, epsilon >= 0.0 && epsilon < 1.0, "epsilon out of range");
  require(errors, alternate_period >= 1, "alternate period must be >= 1");
  require(errors, resource_period >= 1, "resource period must be >= 1");
  require(errors,
          power_smoothing_alpha > 0.0 && power_smoothing_alpha <= 1.0,
          "smoothing alpha must be in (0, 1]");
  require(errors, placement_racks >= 0, "rack count must be non-negative");
  require(errors, max_queue_delay_s >= 0.0,
          "queue-delay SLA must be non-negative");
  try {
    (void)catalogByName(catalog);
  } catch (const PreconditionError& e) {
    errors.emplace_back(e.what());
  }
  workload.appendErrors(errors);
  faults.appendErrors(errors);
  elasticity.appendErrors(errors);
  resilience.appendErrors(errors);
  forecast.appendErrors(errors);
  require(errors, backend == SimBackend::Fluid || !faults.anyEnabled(),
          "fault injection is only supported by the fluid backend");
  require(errors,
          backend == SimBackend::Fluid ||
              (!elasticity.delaysEnabled() && !elasticity.spotEnabled()),
          "elasticity delays and the spot tier are only supported by the "
          "fluid backend");
  return errors;
}

void ExperimentConfig::validate() const {
  const std::vector<std::string> errors = validationErrors();
  if (errors.empty()) return;
  std::ostringstream os;
  os << "invalid experiment config (" << errors.size() << " error"
     << (errors.size() == 1 ? "" : "s") << "): ";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    os << (i ? "; " : "") << errors[i];
  }
  throw PreconditionError(os.str());
}

double deriveSigma(const Dataflow& df, double mean_rate, SimTime horizon_s) {
  double gamma_min_sum = 0.0;
  for (const auto& pe : df.pes()) {
    gamma_min_sum += pe.relativeValue(pe.worstValueAlternate());
  }
  const double gamma_min =
      gamma_min_sum / static_cast<double>(df.peCount());
  const double gamma_max = 1.0;  // best-value alternates normalize to 1
  if (gamma_max - gamma_min < 1e-12) {
    // No dynamism in the graph: value is constant, so any positive sigma
    // only scales cost; normalize against the acceptable cost directly.
    return 1.0 / evaluationAcceptableCost(mean_rate, horizon_s);
  }
  // Acceptable-cost line through the origin: running the min-value
  // configuration is worth proportionally less, C_min = Gamma_min * C_max.
  // This reduces sigma to 1 / C_max — one unit of application value is
  // worth exactly the full acceptable budget.
  const double cost_at_max = evaluationAcceptableCost(mean_rate, horizon_s);
  const double cost_at_min = gamma_min * cost_at_max;
  return equivalenceFactor(gamma_max, gamma_min, cost_at_max, cost_at_min);
}

SimulationEngine::SimulationEngine(const Dataflow& dataflow,
                                   ExperimentConfig config)
    : SimulationEngine(dataflow, std::move(config), EngineArenas{}) {}

SimulationEngine::SimulationEngine(const Dataflow& dataflow,
                                   ExperimentConfig config,
                                   EngineArenas arenas)
    : dataflow_(&dataflow),
      config_(std::move(config)),
      arenas_(std::move(arenas)) {
  config_.validate();
  sigma_ = config_.sigma_override >= 0.0
               ? config_.sigma_override
               : deriveSigma(dataflow, config_.workload.mean_rate,
                             config_.horizon_s);
}

ExperimentResult SimulationEngine::run(const SchedulerSpec& spec,
                                       obs::TraceSink* sink) const {
  const Dataflow& df = *dataflow_;
  const obs::Tracer tracer(sink);
  obs::MetricsRegistry registry;
  // The spot tier is a pure catalog extension: disabled, the catalog (and
  // with it every class id and plan) is byte-identical to the pre-spot
  // behavior. A substrate-provided catalog arena was resolved through
  // these same calls once per campaign instead of once per run.
  CloudProvider cloud(
      arenas_.catalog != nullptr
          ? CloudProvider(arenas_.catalog)
          : CloudProvider(config_.elasticity.spotEnabled()
                              ? withSpotTier(catalogByName(config_.catalog),
                                             config_.elasticity.spot_discount)
                              : catalogByName(config_.catalog)));
  cloud.setTracer(tracer);
  const TraceReplayer replayer =
      config_.workload.infra_variability
          ? TraceReplayer::futureGridLike(config_.seed)
          : TraceReplayer::ideal();
  PlacementConfig placement_cfg;
  placement_cfg.racks = std::max(config_.placement_racks, 1);
  const PlacementModel placement(placement_cfg, config_.seed ^ 0x9a7cull);

  // The fault plan reaches the run through exactly two seams: monitoring
  // (stragglers and partitions perturb what everyone observes — scheduler
  // and simulator alike) and the provider's tryAcquire (rejections and
  // provisioning lag). Schedulers never see the plan itself.
  const FaultPlan faults(faultPlanConfigOf(config_));
  cloud.setAcquisitionFaults(faults.perturbsAcquisition() ? &faults
                                                          : nullptr);
  cloud.setPreemptionModel(faults.perturbsSpot() ? &faults : nullptr);
  MonitoringService monitor(
      cloud, replayer,
      config_.placement_racks > 0 ? &placement : nullptr,
      faults.perturbsPerformance() ? &faults : nullptr);

  SimConfig sim_cfg;
  sim_cfg.msg_size_bytes = config_.workload.msg_size_bytes;
  sim_cfg.interval_s = config_.interval_s;
  sim_cfg.engine = config_.fluid_reference_engine
                       ? SimConfig::Engine::Reference
                       : SimConfig::Engine::Cached;

  ProbeHistory probes(monitor, config_.power_smoothing_alpha);
  SchedulerEnv env;
  env.dataflow = &df;
  env.cloud = &cloud;
  env.monitor = &monitor;
  if (config_.power_smoothing_alpha < 1.0) env.probes = &probes;
  env.sim_config = sim_cfg;
  env.omega_target = config_.omega_target;
  env.epsilon = config_.epsilon;
  env.sigma = sigma_;
  env.horizon_s = config_.horizon_s;
  env.seed = config_.seed;
  env.tracer = tracer;
  env.metrics = &registry;
  env.plan_structure = arenas_.plan_structure;

  HeuristicOptions heuristic;
  heuristic.alternate_period = config_.alternate_period;
  heuristic.resource_period = config_.resource_period;
  if (config_.cheapest_class_acquisition) {
    heuristic.acquisition = ResourceAllocator::AcquisitionPolicy::CheapestPower;
  }
  heuristic.max_queue_delay_s = config_.max_queue_delay_s;
  heuristic.spot_fraction = config_.elasticity.spotEnabled()
                                ? config_.elasticity.spot_fraction
                                : 0.0;
  heuristic.resilience = resilienceOptionsOf(config_);
  heuristic.preacquire_margin = config_.forecast.preacquire_margin;
  heuristic.lookahead_alternates = config_.forecast.lookahead_alternates;
  // Pre-acquisition lead: the worst-case *mean* provisioning delay over
  // the catalog, so VMs ordered now are (in expectation) ready when the
  // forecast peak lands. Zero when delivery is instant — pre-acquisition
  // then fires only one resource period ahead.
  {
    int max_cores = 1;
    for (const auto& cls : cloud.catalog().classes()) {
      max_cores = std::max(max_cores, cls.cores);
    }
    heuristic.preacquire_lead_s =
        config_.elasticity.provisioning_delay_s +
        config_.elasticity.provisioning_delay_per_core_s *
            static_cast<double>(max_cores - 1);
  }

  std::unique_ptr<Scheduler> scheduler = makeScheduler(spec, env, heuristic);
  const std::string scheduler_name = schedulerName(spec);

  // The header is the first line of every trace: it carries everything the
  // analyzer needs to recompute Theta and attribute events to intervals.
  if (tracer.enabled()) {
    tracer.emit(obs::RunHeaderEvent{.scheduler = scheduler_name,
                                    .seed = config_.seed,
                                    .sigma = sigma_,
                                    .omega_target = config_.omega_target,
                                    .epsilon = config_.epsilon,
                                    .horizon_s = config_.horizon_s,
                                    .interval_s = config_.interval_s,
                                    .backend = toString(config_.backend)});
  }

  const auto profile =
      makeProfile(config_.workload.profile, config_.workload.mean_rate,
                  config_.horizon_s, config_.seed ^ 0x5bd1e995u);
  const IntervalClock clock(config_.interval_s, config_.horizon_s);

  // Initial deployment sees the estimated rate — the profile's value at t0.
  Deployment deployment = scheduler->deploy(profile->rate(0.0));

  ExperimentResult result;
  result.scheduler_name = scheduler_name;
  result.sigma = sigma_;

  obs::Histogram& h_omega = registry.histogram("interval.omega");
  obs::Histogram& h_gamma = registry.histogram("interval.gamma");
  obs::Histogram& h_rate = registry.histogram("interval.input_rate");

  // Wall-clock inside DataflowSimulator::step only, for
  // fluid.intervals_per_s; the event simulator times its own steps.
  double step_wall_s = 0.0;
  // Rate forecasting. Off, the forecaster stays null and schedulers see a
  // null forecast pointer — bit-identical to the reactive behaviour.
  std::unique_ptr<Forecaster> forecaster;
  if (config_.forecast.enabled()) {
    ForecastOptions fopts;
    fopts.ewma_alpha = config_.forecast.ewma_alpha;
    fopts.hw_alpha = config_.forecast.hw_alpha;
    fopts.hw_beta = config_.forecast.hw_beta;
    fopts.hw_gamma = config_.forecast.hw_gamma;
    fopts.hw_season_intervals = config_.forecast.hw_season_intervals;
    forecaster = makeForecaster(config_.forecast.model, fopts);
  }
  ForecastErrorTracker forecast_errors;
  std::vector<double> forecast_rates;

  // The control loop of §7, written once for both backends: inject faults,
  // monitor, adapt (Alg. 2), then execute the interval. Both simulators
  // expose the same seam — step, migrateBacklog, pauseService and
  // dropBacklog — so this generic lambda is instantiated once per backend.
  const auto runIntervals = [&](auto& simulator) {
    double omega_sum = 0.0;
    IntervalMetrics last{};
    // Per-VM "already announced" flags for the elasticity trace records;
    // indexed by VmId, grown lazily as instances appear.
    std::vector<bool> provisioning_announced;
    std::vector<bool> notice_announced;
    // Crashes and spot reclamations take the undrained backlog on the
    // lost VM with them.
    const auto dropLosses = [&simulator](const FailureEvent& ev) {
      double lost = 0.0;
      for (const BacklogLoss& loss : ev.losses) {
        lost += simulator.dropBacklog(loss.pe, loss.fraction);
      }
      return lost;
    };
    for (IntervalIndex i = 0; i < clock.intervalCount(); ++i) {
      const SimTime now = clock.startOf(i);
      if (tracer.enabled()) {
        tracer.emit(obs::IntervalBeginEvent{
            .t = now, .interval = i, .input_rate = profile->rate(now)});
      }
      // Provisioning-complete records: a delayed VM's capacity came online
      // since the last interval boundary.
      if (tracer.enabled() && faults.perturbsAcquisition()) {
        const auto& instances = cloud.instances();
        provisioning_announced.resize(instances.size(), false);
        for (const VmInstance& vm : instances) {
          if (provisioning_announced[vm.id().value()]) continue;
          if (vm.readyTime() <= vm.startTime()) {
            provisioning_announced[vm.id().value()] = true;
            continue;
          }
          if (vm.readyTime() > now || vm.readyTime() > vm.offTime()) continue;
          provisioning_announced[vm.id().value()] = true;
          tracer.emit(obs::ProvisioningCompleteEvent{
              .t = vm.readyTime(), .vm = vm.id().value()});
        }
      }
      // Preemption notices precede the reclamation itself: the provider
      // announces `spot_notice_s` ahead, and the scheduler's next
      // resource phase (this interval) sees preemptionImminent() flip.
      if (faults.perturbsSpot()) {
        const auto& instances = cloud.instances();
        notice_announced.resize(instances.size(), false);
        for (const VmInstance& vm : instances) {
          if (notice_announced[vm.id().value()] || !vm.isActive()) continue;
          if (!cloud.preemptionImminent(vm.id(), now)) continue;
          notice_announced[vm.id().value()] = true;
          if (tracer.enabled()) {
            tracer.emit(obs::PreemptionNoticeEvent{
                .t = now,
                .vm = vm.id().value(),
                .preempt_at = cloud.preemptionTimeOf(vm.id())});
          }
        }
      }
      // Crashes land before the adaptation step observes the world, so the
      // scheduler reacts to the reduced capacity this very interval.
      for (const FailureEvent& ev : faults.injectUpTo(cloud, now)) {
        ++result.vm_failures;
        registry.counter("run.vm_failures").inc();
        const double lost_here = dropLosses(ev);
        result.messages_lost += lost_here;
        if (tracer.enabled()) {
          tracer.emit(obs::FaultInjectionEvent{.t = now,
                                               .vm = ev.vm.value(),
                                               .family = "crash",
                                               .messages_lost = lost_here});
        }
      }
      // Spot reclamations work exactly like crashes but bill under the
      // preemption rule.
      for (const FailureEvent& ev :
           faults.injectPreemptionsUpTo(cloud, now)) {
        ++result.preemptions;
        registry.counter("run.preemptions").inc();
        const double lost_here = dropLosses(ev);
        result.messages_lost += lost_here;
        if (tracer.enabled()) {
          tracer.emit(obs::PreemptionEvent{.t = now,
                                           .vm = ev.vm.value(),
                                           .messages_lost = lost_here});
        }
      }
      if (env.probes != nullptr) probes.probe(now);
      if (i > 0) {
        ObservedState state;
        state.interval = i;
        state.now = now;
        // What monitoring measured during the previous interval; the
        // adaptation assumes t_{i+1} looks like t_i (§7.2).
        state.input_rate = profile->rate(clock.startOf(i - 1));
        state.average_omega = omega_sum / static_cast<double>(i);
        state.last_interval = &last;
        if (forecaster != nullptr) {
          // The model sees exactly what the scheduler sees: the rate
          // measured over the interval that just ended. forecast[0] is
          // then the one-step prediction of the current interval.
          forecaster->observe(state.input_rate);
          forecast_rates =
              forecaster->forecast(config_.forecast.horizon_intervals);
          forecast_errors.record(forecast_rates.front(), profile->rate(now));
          state.forecast = &forecast_rates;
          registry.counter("forecast.predictions").inc();
          if (tracer.enabled()) {
            tracer.emit(obs::ForecastEvent{.t = now,
                                           .interval = i,
                                           .model = forecaster->name(),
                                           .rates = forecast_rates});
          }
        }
        for (const MigrationEvent& ev :
             scheduler->adapt(state, deployment)) {
          simulator.migrateBacklog(ev.pe, ev.backlog_fraction);
          // Buffer migration is not free: the moved share's service pauses
          // while its state transfers.
          const double downtime =
              migrationDowntime(config_.elasticity, ev.backlog_fraction);
          if (downtime > 0.0) {
            simulator.pauseService(ev.pe, downtime);
            if (tracer.enabled()) {
              tracer.emit(obs::MigrationBeginEvent{
                  .t = now,
                  .pe = ev.pe.value(),
                  .backlog_fraction = ev.backlog_fraction,
                  .downtime_s = downtime});
              tracer.emit(obs::MigrationEndEvent{.t = now + downtime,
                                                 .pe = ev.pe.value()});
            }
          }
        }
      }
      if constexpr (std::is_same_v<std::remove_cvref_t<decltype(simulator)>,
                                   DataflowSimulator>) {
        const auto wall_begin = std::chrono::steady_clock::now();
        last = simulator.step(i, profile->rate(now), deployment);
        step_wall_s +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          wall_begin)
                .count();
      } else {
        last = simulator.step(i, profile->rate(now), deployment);
      }
      omega_sum += last.omega;
      const SimTime end = now + config_.interval_s;
      if (tracer.enabled()) {
        double processed = 0.0;
        double capacity = 0.0;
        double backlog = 0.0;
        for (const PeIntervalStats& st : last.pe_stats) {
          processed += st.processed_rate;
          capacity += st.capacity_rate;
          backlog += st.backlog_msgs;
        }
        const double rho =
            capacity > 0.0 ? std::clamp(processed / capacity, 0.0, 1.0)
                           : 0.0;
        tracer.emit(obs::IntervalEndEvent{
            .t = end,
            .interval = i,
            .omega = last.omega,
            .omega_bar = omega_sum / static_cast<double>(i + 1),
            .gamma = last.gamma,
            .cost = last.cost_cumulative,
            .utilization = rho,
            .backlog_msgs = backlog,
            .active_vms = last.active_vms,
            .allocated_cores = last.allocated_cores});
      }
      h_omega.observe(last.omega);
      h_gamma.observe(last.gamma);
      h_rate.observe(last.input_rate);
      if (last.omega < config_.omega_target) {
        registry.counter("run.omega_violations").inc();
        if (tracer.enabled()) {
          tracer.emit(obs::OmegaViolationEvent{
              .t = end,
              .interval = i,
              .omega = last.omega,
              .omega_target = config_.omega_target});
        }
      }
      result.peak_vms = std::max(result.peak_vms, last.active_vms);
      result.peak_cores = std::max(result.peak_cores, last.allocated_cores);
      result.run.add(last);
    }
  };

  if (config_.backend == SimBackend::Event) {
    EventSimConfig ev_cfg;
    ev_cfg.msg_size_bytes = config_.workload.msg_size_bytes;
    ev_cfg.interval_s = config_.interval_s;
    ev_cfg.seed = config_.seed ^ 0xe7e9ull;
    ev_cfg.engine = config_.event_reference_engine
                        ? EventSimConfig::Engine::Reference
                        : EventSimConfig::Engine::Cached;
    EventSimulator simulator(df, cloud, monitor, ev_cfg);
    runIntervals(simulator);
    const EventSimResult& er = simulator.result();
    result.messages_delivered = er.messages_delivered;
    result.latency_mean_s = er.latency.mean();
    if (!er.latency_samples.empty()) {
      std::vector<double> sorted = er.latency_samples;  // one sort, three reads
      std::sort(sorted.begin(), sorted.end());
      result.latency_p50_s = sortedPercentile(sorted, 50.0);
      result.latency_p95_s = sortedPercentile(sorted, 95.0);
      result.latency_p99_s = sortedPercentile(sorted, 99.0);
    }
    registry.counter("eventsim.arrivals").inc(er.counters.arrivals);
    registry.counter("eventsim.deliveries").inc(er.counters.deliveries);
    registry.counter("eventsim.completions").inc(er.counters.completions);
    registry.counter("eventsim.dispatches").inc(er.counters.dispatches);
    registry.counter("eventsim.route_refreshes")
        .inc(er.counters.route_refreshes);
    registry.counter("eventsim.core_index_rebuilds")
        .inc(er.counters.core_index_rebuilds);
    if (er.wall_seconds > 0.0) {
      registry.gauge("eventsim.events_per_s")
          .set(static_cast<double>(er.counters.drained()) / er.wall_seconds);
    }
  } else {
    DataflowSimulator simulator(df, cloud, monitor, sim_cfg,
                                arenas_.fluid_layout);
    runIntervals(simulator);
    // Fluid-kernel health: ledger-image rebuilds are deterministic (the
    // cached kernel rebuilds per allocation-ledger generation, the
    // reference kernel once per interval); intervals/s is wall-clock and —
    // like every *_per_s gauge — stripped from timing-free campaign JSON.
    registry.counter("fluid.kernel_rebuilds").inc(simulator.kernelRebuilds());
    if (step_wall_s > 0.0) {
      registry.gauge("fluid.intervals_per_s")
          .set(static_cast<double>(clock.intervalCount()) / step_wall_s);
    }
  }

  result.average_omega = result.run.averageOmega();
  result.average_gamma = result.run.averageGamma();
  result.total_cost = cloud.accumulatedCost(config_.horizon_s);
  // The stored per-interval cumulative cost already tracks this; keep the
  // final authoritative number from the provider.
  result.theta = result.average_gamma - sigma_ * result.total_cost;
  result.constraint_met = result.run.meetsThroughputConstraint(
      config_.omega_target, config_.epsilon);
  result.recovery = computeRecoveryStats(result.run, config_.omega_target,
                                         config_.interval_s);
  result.resilience = scheduler->telemetry();
  result.acquisition_rejections = cloud.rejectedAcquisitions();
  registry.gauge("run.intervals")
      .set(static_cast<double>(clock.intervalCount()));
  registry.gauge("run.messages_lost").set(result.messages_lost);
  registry.gauge("cloud.total_cost").set(result.total_cost);
  registry.gauge("cloud.vms_acquired")
      .set(static_cast<double>(cloud.instanceCount()));
  registry.gauge("cloud.acquisition_rejections")
      .set(static_cast<double>(cloud.rejectedAcquisitions()));
  if (forecaster != nullptr && forecast_errors.count() > 0) {
    registry.gauge("forecast.mape").set(forecast_errors.mape());
    registry.gauge("forecast.bias").set(forecast_errors.bias());
  }
  result.metrics = registry.snapshot();
  return result;
}

}  // namespace dds

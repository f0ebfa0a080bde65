// SimulationEngine's interval loop, generic over the simulator pair it
// drives. Private to the build: src/core/engine.cpp instantiates it with
// the product's DataflowSimulator and EventSimulator (that is run()), and
// the test-only dds_oracle library instantiates it with its reference
// simulators (oracle::runReference). Both types of a pair expose the same
// members — step, migrateBacklog, pauseService, dropBacklog, plus
// kernelRebuilds/wallSeconds (fluid) or result (event) — so the loop has
// no branch on which implementation runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "dds/cloud/cloud_provider.hpp"
#include "dds/common/stats.hpp"
#include "dds/core/engine.hpp"
#include "dds/eventsim/event_simulator.hpp"
#include "dds/faults/fault_plan.hpp"
#include "dds/monitor/monitoring.hpp"
#include "dds/monitor/probe_history.hpp"
#include "dds/sched/heuristic_scheduler.hpp"
#include "dds/sim/simulator.hpp"
#include "dds/trace/trace_replayer.hpp"

namespace dds {
namespace interval_loop {

/// Seconds a PE's service pauses while `fraction` of its buffered state
/// (pe_state_mb megabytes total) migrates over the elasticity model's
/// migration bandwidth. Zero when migration cost is disabled.
inline double migrationDowntime(const ElasticityConfig& ec, double fraction) {
  if (!ec.migrationEnabled() || fraction <= 0.0) return 0.0;
  // MB -> megabits over Mbps gives seconds.
  return ec.pe_state_mb * fraction * 8.0 / ec.migration_bandwidth_mbps;
}

/// Pre-acquisition lead, seconds: the worst-case *mean* provisioning
/// delay over the catalog, so VMs ordered now are (in expectation) ready
/// when the forecast peak lands. Zero when delivery is instant —
/// pre-acquisition then fires only one resource period ahead.
inline double preacquireLead(const ResourceCatalog& catalog,
                             const ElasticityConfig& ec) {
  double lead = 0.0;
  for (const ResourceClass& cls : catalog.classes()) {
    lead = std::max(lead, ec.meanProvisioningDelay(cls.cores));
  }
  return lead;
}

}  // namespace interval_loop

template <class FluidSim, class EventSim>
ExperimentResult SimulationEngine::runWith(const SchedulerSpec& spec,
                                           obs::TraceSink* sink) const {
  using namespace interval_loop;
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
  const PlacementModel placement(std::max(config_.placement_racks, 1),
                                 config_.seed ^ 0x9a7cull);

  // The fault plan reaches the run through exactly two seams: monitoring
  // (stragglers and partitions perturb what everyone observes — scheduler
  // and simulator alike) and the provider's tryAcquire (rejections and
  // provisioning lag). Schedulers never see the plan itself.
  const FaultPlan faults(config_.seed ^ 0xfa117ull, config_.faults,
                         config_.elasticity);
  cloud.setAcquisitionFaults(faults.perturbsAcquisition() ? &faults
                                                          : nullptr);
  cloud.setPreemptionModel(faults.perturbsSpot() ? &faults : nullptr);
  MonitoringService monitor(
      cloud, replayer,
      config_.placement_racks > 0 ? &placement : nullptr,
      faults.perturbsPerformance() ? &faults : nullptr);

  const SimConfig sim_cfg{.msg_size_bytes = config_.workload.msg_size_bytes,
                         .interval_s = config_.interval_s};

  ProbeHistory probes(monitor, config_.power_smoothing_alpha);
  const SchedulerEnv env{
      .dataflow = &df, .cloud = &cloud, .monitor = &monitor,
      .probes = config_.power_smoothing_alpha < 1.0 ? &probes : nullptr,
      .sim_config = sim_cfg, .omega_target = config_.omega_target,
      .epsilon = config_.epsilon, .sigma = sigma_,
      .horizon_s = config_.horizon_s, .seed = config_.seed, .tracer = tracer,
      .metrics = &registry, .plan_structure = arenas_.plan_structure};

  std::unique_ptr<Scheduler> scheduler = makeScheduler(
      spec, env, config_.heuristic, config_.resilience,
      config_.elasticity.spotEnabled() ? config_.elasticity.spot_fraction
                                       : 0.0,
      preacquireLead(cloud.catalog(), config_.elasticity));
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

  // Rate forecasting. Off, the forecaster stays null and schedulers see a
  // null forecast pointer — bit-identical to the reactive behaviour.
  std::unique_ptr<Forecaster> forecaster;
  if (config_.forecast.enabled()) forecaster = makeForecaster(config_.forecast);
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
      // Crashes, then spot reclamations (billed under the preemption
      // rule), land before the adaptation step observes the world, so the
      // scheduler reacts to the reduced capacity this very interval. Both
      // take the undrained backlog on the lost VM with them.
      for (const bool preempted : {false, true}) {
        for (const FailureEvent& ev :
             preempted ? faults.injectPreemptionsUpTo(cloud, now)
                       : faults.injectUpTo(cloud, now)) {
          ++(preempted ? result.preemptions : result.vm_failures);
          registry.counter(preempted ? "run.preemptions" : "run.vm_failures")
              .inc();
          double lost = 0.0;
          for (const BacklogLoss& loss : ev.losses) {
            lost += simulator.dropBacklog(loss.pe, loss.fraction);
          }
          result.messages_lost += lost;
          if (!tracer.enabled()) continue;
          if (preempted) {
            tracer.emit(obs::PreemptionEvent{
                .t = now, .vm = ev.vm.value(), .messages_lost = lost});
          } else {
            tracer.emit(obs::FaultInjectionEvent{.t = now,
                                                 .vm = ev.vm.value(),
                                                 .family = "crash",
                                                 .messages_lost = lost});
          }
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
      last = simulator.step(i, profile->rate(now), deployment);
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
    EventSimConfig ev_cfg{sim_cfg};
    ev_cfg.seed = config_.seed ^ 0xe7e9ull;
    EventSim simulator(df, cloud, monitor, ev_cfg);
    runIntervals(simulator);
    const EventSimResult& er = simulator.result();
    result.messages_delivered = er.messages_delivered;
    result.latency_mean_s = er.latency.mean();
    if (!er.latency_samples.empty()) {
      std::vector<double> scratch = er.latency_samples;  // one copy
      const auto [p50, p95, p99] = percentiles(scratch, {50.0, 95.0, 99.0});
      result.latency_p50_s = p50;
      result.latency_p95_s = p95;
      result.latency_p99_s = p99;
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
    FluidSim simulator(df, cloud, monitor, sim_cfg, arenas_.fluid_layout);
    runIntervals(simulator);
    // Fluid-kernel health: ledger-image rebuilds are deterministic (one
    // per allocation-ledger generation); intervals/s is wall-clock inside
    // step() only and — like every *_per_s gauge — stripped from
    // timing-free campaign JSON.
    registry.counter("fluid.kernel_rebuilds").inc(simulator.kernelRebuilds());
    if (simulator.wallSeconds() > 0.0) {
      registry.gauge("fluid.intervals_per_s")
          .set(static_cast<double>(clock.intervalCount()) /
               simulator.wallSeconds());
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

#include "dds/sched/heuristic_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dds/sim/rate_model.hpp"

namespace dds {
namespace {

constexpr double kEps = 1e-9;
using Mode = SchedulerSpec::Mode;

/// Heuristic decisions are not plan-scored; their decision events carry
/// Θ = NaN (serialized as the "NaN" sentinel) rather than a fake zero.
const double kNoTheta = std::numeric_limits<double>::quiet_NaN();

/// Free (unallocated) normalized core power across active VMs.
double freeCorePower(const CloudProvider& cloud, const CorePowerFn& power) {
  double total = 0.0;
  for (const VmId id : cloud.activeIds()) {
    total += static_cast<double>(cloud.instance(id).freeCoreCount()) *
             power(id);
  }
  return total;
}

}  // namespace

void HeuristicConfig::appendErrors(std::vector<std::string>& errors) const {
  require(errors, alternate_period >= 1, "alternate period must be >= 1");
  require(errors, resource_period >= 1, "resource period must be >= 1");
  require(errors, max_queue_delay_s >= 0.0,
          "queue-delay SLA must be non-negative");
  require(errors, preacquire_margin >= 0.0,
          "pre-acquisition margin must be non-negative");
}

HeuristicScheduler::HeuristicScheduler(SchedulerEnv env, Strategy strategy,
                                       SchedulerSpec::Mode mode,
                                       HeuristicConfig config,
                                       ResilienceConfig resilience,
                                       double spot_fraction,
                                       double preacquire_lead_s)
    : env_(env.validated()),
      strategy_(strategy),
      mode_(mode),
      config_(config),
      resilience_(resilience),
      preacquire_lead_s_(preacquire_lead_s),
      allocator_(*env_.dataflow, *env_.cloud, env_.omega_target,
                 config.acquisition) {
  requireValid(config_, "heuristic config");
  allocator_.setResilience(resilience_);
  allocator_.setSpotPreference(spot_fraction, env_.seed);
  allocator_.setObservability(env_.tracer, env_.metrics);
  if (resilience_.quarantineEnabled()) {
    guard_ = std::make_unique<StragglerGuard>(*env_.cloud, *env_.monitor,
                                              resilience_);
    guard_->setTracer(env_.tracer);
  }
}

Deployment HeuristicScheduler::deploy(double estimated_input_rate) {
  DDS_REQUIRE(estimated_input_rate >= 0.0,
              "estimated input rate must be non-negative");
  const Dataflow& df = *env_.dataflow;
  Deployment deployment(df);

  // Alternate-selection stage (Alg. 1 lines 2-11).
  if (mode_ != Mode::NoDyn) {
    selectInitialAlternates(strategy_, df, deployment);
  } else {
    selectBestValueAlternates(df, deployment);
  }

  // Resource-allocation stage (Alg. 1 lines 12-27). Deployment plans with
  // rated performance and provisions for the full estimated demand
  // (target 1.0): the input rate is only an estimate, and a static run
  // has no second chance. The runtime phases later shed the surplus down
  // to the Omega-hat constraint.
  const CorePowerFn rated = ratedCorePowerFn(*env_.cloud);
  allocator_.ensureMinimumCores(0.0);
  allocator_.scaleOut(deployment, estimated_input_rate, rated, 0.0,
                      strategy_, /*target=*/1.0);
  if (strategy_ == Strategy::Global && config_.enable_repacking) {
    allocator_.repackPes(deployment, estimated_input_rate, rated, 0.0);
    allocator_.repackFreeVms();
  }
  // VMs emptied by repacking were acquired this instant: releasing at t=0
  // is free under hour-rounded billing for either strategy.
  allocator_.releaseEmptyVms(ResourceAllocator::ReleasePolicy::Immediate,
                             0.0, env_.sim_config.interval_s);
  return deployment;
}

std::vector<MigrationEvent> HeuristicScheduler::adapt(
    const ObservedState& state, Deployment& deployment) {
  if (mode_ == Mode::Static || state.interval == 0) return {};
  const bool alternate_ran =
      mode_ != Mode::NoDyn &&
      state.interval % config_.alternate_period == 0;
  if (alternate_ran) {
    // Predictive runs score alternates against the whole forecast vector
    // when one is available; without a forecast (or with lookahead
    // disabled) they fall back to the reactive Alg. 2 phase.
    if (mode_ == Mode::Predictive && config_.lookahead_alternates &&
        state.forecast != nullptr && !state.forecast->empty()) {
      lookaheadPhase(state, deployment);
    } else {
      alternatePhase(state, deployment);
    }
  }
  // Graceful degradation: the constraint is breached and replacement
  // capacity is still on order (provisioning, or acquisitions backing
  // off). Waiting for the alternate cadence would spend whole intervals
  // below Omega-hat, so run the selection phase off-cadence now — its
  // underprovisioned branch downgrades alternates, restoring throughput
  // with the capacity actually on hand.
  const double omega_t =
      state.last_interval != nullptr ? state.last_interval->omega : 1.0;
  if (!alternate_ran && resilience_.graceful_degradation &&
      mode_ != Mode::NoDyn && omega_t < env_.omega_target &&
      capacityPending(state.now)) {
    alternatePhase(state, deployment);
    ++graceful_degradations_;
    if (env_.tracer.enabled()) {
      env_.tracer.emit(obs::SchedulerDecisionEvent{
          .t = state.now,
          .interval = state.interval,
          .phase = "alternate",
          .action = "graceful_degradation",
          .omega = omega_t,
          .omega_bar = state.average_omega,
          .theta = kNoTheta,
          .rejected = {}});
    }
    if (env_.metrics != nullptr) {
      env_.metrics->counter("sched.graceful_degradations").inc();
    }
  }
  if (state.interval % config_.resource_period == 0) {
    return resourcePhase(state, deployment);
  }
  return {};
}

SchedulerTelemetry HeuristicScheduler::telemetry() const {
  SchedulerTelemetry t;
  t.stragglers_quarantined =
      guard_ != nullptr ? guard_->quarantineCount() : 0;
  t.graceful_degradations = graceful_degradations_;
  t.acquisition_rejections = allocator_.acquisitionRejections();
  t.preemption_drains = preemption_drains_;
  return t;
}

bool HeuristicScheduler::capacityPending(SimTime now) const {
  if (allocator_.acquisitionBackoffActive(now)) return true;
  for (const VmId id : env_.cloud->activeIds()) {
    if (!env_.cloud->instance(id).isReady(now)) return true;
  }
  return false;
}

CorePowerFn HeuristicScheduler::runtimePowerFn(SimTime now) const {
  CorePowerFn inner;
  if (env_.probes != nullptr && env_.probes->probeCount() > 0) {
    inner = [probes = env_.probes](VmId vm) {
      return probes->smoothedCorePower(vm);
    };
  } else {
    inner = observedCorePowerFn(*env_.monitor, now);
  }
  // A VM still provisioning observes zero power, but it is capacity on
  // order, not dead weight: planning it at zero would make every scale-out
  // buy yet more replacements for VMs that are about to come online. Plan
  // it at rated power until it is ready.
  return [inner = std::move(inner), cloud = env_.cloud, now](VmId vm) {
    const VmInstance& inst = cloud->instance(vm);
    if (!inst.isReady(now)) return inst.spec().core_speed;
    return inner(vm);
  };
}

std::vector<double> HeuristicScheduler::measuredArrivals(
    const ObservedState& state, const Deployment& deployment) const {
  const Dataflow& df = *env_.dataflow;
  const std::size_t n = df.peCount();
  if (state.last_interval == nullptr ||
      state.last_interval->pe_stats.size() != n) {
    return expectedArrivalRates(df, deployment, state.input_rate);
  }
  std::vector<double> arrivals(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    // Measured *data rates* (§4's monitoring), not queue-drain pressure:
    // provisioning against backlog drain would amplify every transient.
    arrivals[i] = state.last_interval->pe_stats[i].arrival_rate;
  }
  // The sources measure their input streams directly, so a rate change is
  // visible at the input PEs immediately; it reaches the local view of
  // downstream PEs only as it propagates, one interval at a time.
  for (const PeId in : df.inputs()) {
    arrivals[in.value()] = std::max(arrivals[in.value()], state.input_rate);
  }
  return arrivals;
}

void HeuristicScheduler::alternatePhase(const ObservedState& state,
                                        Deployment& deployment) {
  const Dataflow& df = *env_.dataflow;
  const double omega_t =
      state.last_interval != nullptr ? state.last_interval->omega : 1.0;
  const double omega_hat = env_.omega_target;
  const double epsilon = env_.epsilon;
  const bool underprovisioned = omega_t <= omega_hat;
  const bool overprovisioned = omega_t >= omega_hat + epsilon;
  if (!underprovisioned && !overprovisioned) return;  // inside the band

  const CorePowerFn power = runtimePowerFn(state.now);
  // The global strategy predicts each PE's load by propagating the
  // observed input rate through the graph; the local strategy only knows
  // what each PE actually saw last interval.
  const auto arrivals = (strategy_ == Strategy::Local)
                            ? measuredArrivals(state, deployment)
                            : expectedArrivalRates(df, deployment,
                                                   state.input_rate);
  const auto allocated = allocator_.allocatedPower(power);
  double available = freeCorePower(*env_.cloud, power);

  // Feasible-set scratch and the downstream-cost prefix, hoisted out of
  // the per-PE loop. The prefix depends on the active alternates, which
  // this very loop mutates, so it is recomputed lazily after a switch —
  // downstreamCosts() is a pure function of the deployment, so each PE
  // still sees exactly the vector the per-PE recomputation produced.
  struct Ranked {
    AlternateId id;
    double ratio;
    double needed_power;
  };
  std::vector<Ranked> feasible;
  std::vector<double> succ_costs;
  bool succ_costs_valid = strategy_ != Strategy::Global;

  for (const auto& element : df.pes()) {
    const PeId pe = element.id();
    const AlternateId active_id = deployment.activeAlternate(pe);
    const Alternate& active = element.alternate(active_id);

    // Feasible set (Alg. 2 lines 4-15): when behind on throughput only
    // alternates at most as expensive as the active one are candidates
    // (they raise throughput); when comfortably ahead, only alternates at
    // least as expensive (they can raise value).
    feasible.clear();
    if (!succ_costs_valid) {
      succ_costs = downstreamCosts(df, deployment);
      succ_costs_valid = true;
    }
    for (std::size_t j = 0; j < element.alternateCount(); ++j) {
      const AlternateId alt_id(static_cast<AlternateId::value_type>(j));
      if (alt_id == active_id) continue;
      const Alternate& alt = element.alternate(alt_id);
      const bool candidate =
          underprovisioned ? alt.cost_core_sec <= active.cost_core_sec
                           : alt.cost_core_sec >= active.cost_core_sec;
      if (!candidate) continue;
      const double cost =
          alternateCost(strategy_, df, pe, alt, succ_costs);
      feasible.push_back({alt_id, element.relativeValue(alt_id) / cost,
                          arrivals[pe.value()] * alt.cost_core_sec});
    }
    std::sort(feasible.begin(), feasible.end(),
              [](const Ranked& a, const Ranked& b) {
                return a.ratio > b.ratio;
              });

    // Switch to the best-ranked feasible alternate (Alg. 2 lines 16-22).
    // Downgrades (the underprovisioned branch) always go through: a
    // cheaper-per-message alternate raises throughput on the *current*
    // allocation even before the resource phase reacts. Upgrades must fit
    // in what the PE already holds plus the free capacity.
    for (const Ranked& r : feasible) {
      const double extra = r.needed_power - allocated[pe.value()];
      if (underprovisioned || extra <= available + kEps) {
        if (env_.tracer.enabled()) {
          env_.tracer.emit(obs::AlternateSwitchEvent{
              .t = state.now,
              .pe = pe.value(),
              .from = active_id.value(),
              .to = r.id.value(),
              .gamma_from = element.relativeValue(active_id),
              .gamma_to = element.relativeValue(r.id)});
        }
        if (env_.metrics != nullptr) {
          env_.metrics->counter("sched.alternate_switches").inc();
        }
        deployment.setActiveAlternate(pe, r.id);
        if (strategy_ == Strategy::Global) succ_costs_valid = false;
        available -= std::max(std::min(extra, available), 0.0);
        break;
      }
    }
  }
}

void HeuristicScheduler::lookaheadPhase(const ObservedState& state,
                                        Deployment& deployment) {
  if (lookahead_ == nullptr) {
    lookahead_ = std::make_unique<LookaheadPlanner>(
        *env_.dataflow, *env_.cloud, env_.plan_structure, env_.omega_target,
        env_.sigma, env_.horizon_s);
  }
  const LookaheadPlanner::Result result =
      lookahead_->plan(deployment, *state.forecast);
  for (const auto& element : env_.dataflow->pes()) {
    const PeId pe = element.id();
    const AlternateId from = deployment.activeAlternate(pe);
    const AlternateId to = result.alternates[pe.value()];
    if (to == from) continue;
    if (env_.tracer.enabled()) {
      env_.tracer.emit(obs::AlternateSwitchEvent{
          .t = state.now,
          .pe = pe.value(),
          .from = from.value(),
          .to = to.value(),
          .gamma_from = element.relativeValue(from),
          .gamma_to = element.relativeValue(to)});
    }
    if (env_.metrics != nullptr) {
      env_.metrics->counter("sched.alternate_switches").inc();
    }
    deployment.setActiveAlternate(pe, to);
  }
  if (env_.tracer.enabled()) {
    env_.tracer.emit(obs::SchedulerDecisionEvent{
        .t = state.now,
        .interval = state.interval,
        .phase = "alternate",
        .action = "lookahead",
        .omega = state.last_interval != nullptr ? state.last_interval->omega
                                                : 1.0,
        .omega_bar = state.average_omega,
        .theta = result.mean_theta,
        .rejected = {}});
  }
  if (env_.metrics != nullptr) {
    env_.metrics->counter("sched.lookahead_plans").inc();
  }
}

int HeuristicScheduler::preacquireForForecast(const ObservedState& state,
                                              const Deployment& deployment,
                                              const CorePowerFn& power,
                                              bool& peak_pending) {
  peak_pending = false;
  if (state.forecast == nullptr || state.forecast->empty()) return 0;
  const std::vector<double>& fc = *state.forecast;
  const double interval_s = env_.sim_config.interval_s;
  // Scan as far ahead as a VM ordered *now* needs to come online, plus
  // the cadence gap until the next resource phase gets its own chance.
  const auto lead_intervals = static_cast<std::size_t>(
      interval_s > 0.0 ? std::ceil(preacquire_lead_s_ / interval_s)
                       : 0.0);
  const std::size_t window = std::min(
      fc.size(),
      lead_intervals + static_cast<std::size_t>(config_.resource_period));
  std::size_t peak_k = 0;
  double peak = fc[0];
  for (std::size_t k = 1; k < window; ++k) {
    if (fc[k] > peak) {
      peak = fc[k];
      peak_k = k;
    }
  }
  if (peak <= state.input_rate * (1.0 + config_.preacquire_margin)) {
    return 0;
  }
  peak_pending = true;

  // Provision for the peak now; the allocator self-guards when current
  // capacity already covers it, so a repeated forecast costs nothing.
  const std::size_t before = env_.cloud->instanceCount();
  allocator_.ensureMinimumCores(state.now);
  allocator_.scaleOut(deployment, peak, power, state.now, strategy_);
  int vms = 0;
  SimTime ready_by = state.now;
  for (const VmId id : env_.cloud->activeIds()) {
    if (id.value() < before) continue;
    ++vms;
    ready_by = std::max(ready_by, env_.cloud->instance(id).readyTime());
  }
  if (vms > 0) {
    if (env_.tracer.enabled()) {
      env_.tracer.emit(obs::PreAcquireEvent{
          .t = state.now,
          .interval = state.interval,
          .peak_interval =
              state.interval + static_cast<IntervalIndex>(peak_k),
          .peak_rate = peak,
          .lead_s = static_cast<double>(peak_k) * interval_s,
          .vms = vms,
          .ready_by = ready_by});
    }
    if (env_.metrics != nullptr) {
      env_.metrics->counter("sched.preacquired_vms")
          .inc(static_cast<std::uint64_t>(vms));
    }
  }
  return vms;
}

void HeuristicScheduler::quarantineStragglers(
    const ObservedState& state, const Deployment& deployment,
    std::vector<MigrationEvent>& migrations) {
  if (guard_ == nullptr) return;
  const auto quarantined = guard_->probe(state.now);
  if (quarantined.empty()) return;

  for (const VmId id : quarantined) {
    const VmInstance& vm = env_.cloud->instance(id);
    // Evacuate. Unlike a crash, quarantine is graceful: each hosted PE's
    // share of buffered messages migrates over the network rather than
    // being lost.
    std::vector<PeId> owners;
    for (int c = 0; c < vm.coreCount(); ++c) {
      const auto owner = vm.coreOwner(c);
      if (owner.has_value() &&
          std::find(owners.begin(), owners.end(), *owner) == owners.end()) {
        owners.push_back(*owner);
      }
    }
    std::int64_t evacuated = 0;
    for (const PeId pe : owners) {
      const int on_vm = vm.coresOwnedBy(pe);
      const int total = totalCores(*env_.cloud, pe);
      env_.cloud->releaseAllCoresOf(id, pe);
      evacuated += on_vm;
      migrations.push_back(
          {pe, static_cast<double>(on_vm) / static_cast<double>(total)});
    }
    if (env_.tracer.enabled()) {
      env_.tracer.emit(obs::StragglerQuarantineEvent{
          .t = state.now,
          .vm = id.value(),
          .smoothed_ratio = guard_->smoothedRatio(id),
          .evacuated_cores = evacuated});
    }
    if (env_.metrics != nullptr) {
      env_.metrics->counter("sched.stragglers_quarantined").inc();
    }
    env_.cloud->release(id, state.now);
  }

  // Replace the evacuated capacity right away instead of waiting for the
  // omega average to sag: re-place any PE left without a core, then scale
  // back out to the constraint. (VMs the guard blacklisted are gone from
  // the active set, so the allocator cannot land cores back on them.)
  const CorePowerFn power = runtimePowerFn(state.now);
  allocator_.ensureMinimumCores(state.now);
  allocator_.scaleOut(deployment, state.input_rate, power, state.now,
                      strategy_);
}

void HeuristicScheduler::drainPreemptionNotices(
    const ObservedState& state, const Deployment& deployment,
    std::vector<MigrationEvent>& migrations) {
  CloudProvider& cloud = *env_.cloud;
  // Without a preemption model (or a zero warning window) there is
  // nothing actionable: the reclaim lands with no lead time.
  if (cloud.noticeWindow() <= 0.0) return;

  std::vector<VmId> doomed;
  for (const VmId id : cloud.activeIds()) {
    if (!cloud.instance(id).spec().preemptible) continue;
    if (cloud.preemptionImminent(id, state.now)) doomed.push_back(id);
  }
  if (doomed.empty()) return;

  for (const VmId id : doomed) {
    const VmInstance& vm = cloud.instance(id);
    // Graceful drain: each hosted PE's share of buffered messages
    // migrates over the network instead of dying with the reclaim. The
    // voluntary release forfeits the partial-hour billing break a
    // provider-initiated preemption would have earned — paying cents to
    // keep the backlog is the whole point of the notice window.
    std::vector<PeId> owners;
    for (int c = 0; c < vm.coreCount(); ++c) {
      const auto owner = vm.coreOwner(c);
      if (owner.has_value() &&
          std::find(owners.begin(), owners.end(), *owner) == owners.end()) {
        owners.push_back(*owner);
      }
    }
    for (const PeId pe : owners) {
      const int on_vm = vm.coresOwnedBy(pe);
      const int total = totalCores(*env_.cloud, pe);
      cloud.releaseAllCoresOf(id, pe);
      migrations.push_back(
          {pe, static_cast<double>(on_vm) / static_cast<double>(total)});
    }
    cloud.release(id, state.now);
    ++preemption_drains_;
    if (env_.tracer.enabled()) {
      env_.tracer.emit(obs::SchedulerDecisionEvent{
          .t = state.now,
          .interval = state.interval,
          .phase = "resource",
          .action = "preemption_drain",
          .omega = state.last_interval != nullptr
                       ? state.last_interval->omega
                       : 1.0,
          .omega_bar = state.average_omega,
          .theta = kNoTheta,
          .rejected = {}});
    }
    if (env_.metrics != nullptr) {
      env_.metrics->counter("sched.preemption_drains").inc();
    }
  }

  // Pre-acquire reliable replacement capacity: the VMs we just walked
  // away from were spot, so steering their replacements back to spot
  // would re-enter the same reclaim lottery mid-incident.
  allocator_.suppressSpot(true);
  const CorePowerFn power = runtimePowerFn(state.now);
  allocator_.ensureMinimumCores(state.now);
  allocator_.scaleOut(deployment, state.input_rate, power, state.now,
                      strategy_);
  allocator_.suppressSpot(false);
}

std::vector<MigrationEvent> HeuristicScheduler::resourcePhase(
    const ObservedState& state, Deployment& deployment) {
  const double omega_hat = env_.omega_target;
  const double epsilon = env_.epsilon;
  const double omega_bar = state.average_omega;
  const double omega_t =
      state.last_interval != nullptr ? state.last_interval->omega : 1.0;
  const CorePowerFn power = runtimePowerFn(state.now);

  std::vector<MigrationEvent> migrations;
  quarantineStragglers(state, deployment, migrations);
  drainPreemptionNotices(state, deployment, migrations);

  // Predictive pre-acquisition: order capacity against forecast peaks
  // inside the provisioning-delay lead window, before Omega sags. A
  // pending peak also vetoes scale-in below — shedding cores that the
  // forecast says will be needed again would pay the delay twice.
  bool forecast_peak_pending = false;
  int preacquired = 0;
  if (mode_ == Mode::Predictive) {
    preacquired = preacquireForForecast(state, deployment, power,
                                        forecast_peak_pending);
  }

  // Local decisions are based on per-PE measurements only (one interval
  // stale for anything an upstream change is about to cause).
  std::vector<double> measured;
  const std::vector<double>* measured_ptr = nullptr;
  if (strategy_ == Strategy::Local) {
    measured = measuredArrivals(state, deployment);
    measured_ptr = &measured;
  }

  // Latency SLA (optional): a queue that would take longer than the SLA
  // to drain is a breach even while Omega looks healthy (draining clamps
  // the throughput ratio at 1). Size capacity to drain within the SLA.
  bool latency_breach = false;
  if (config_.max_queue_delay_s > 0.0 && state.last_interval != nullptr &&
      state.last_interval->pe_stats.size() == env_.dataflow->peCount()) {
    bool breach = false;
    std::vector<double> drain_demand(env_.dataflow->peCount(), 0.0);
    for (std::size_t i = 0; i < drain_demand.size(); ++i) {
      const auto& st = state.last_interval->pe_stats[i];
      drain_demand[i] =
          st.arrival_rate + st.backlog_msgs / config_.max_queue_delay_s;
      const double wait = st.capacity_rate > 0.0
                              ? st.backlog_msgs / st.capacity_rate
                              : (st.backlog_msgs > 0.0
                                     ? std::numeric_limits<double>::infinity()
                                     : 0.0);
      if (wait > config_.max_queue_delay_s) breach = true;
    }
    if (breach) {
      latency_breach = true;
      // Per-PE sizing is the right shape for queue draining regardless of
      // strategy — each backlog lives at one PE.
      allocator_.scaleOut(deployment, state.input_rate, power, state.now,
                          Strategy::Local, 1.0, &drain_demand);
    }
  }

  // §7.2: scale out when the average throughput so far trails the
  // constraint. The instantaneous check supplements it so a sudden rate or
  // performance drop is answered this interval, not after the long-run
  // average has decayed below the threshold.
  const char* action = latency_breach   ? "latency_scale_out"
                       : preacquired > 0 ? "preacquire"
                                         : "hold";
  if (omega_bar < omega_hat || omega_t < omega_hat - epsilon) {
    allocator_.scaleOut(deployment, state.input_rate, power, state.now,
                        strategy_, -1.0, measured_ptr);
    action = "scale_out";
    if (env_.metrics != nullptr) env_.metrics->counter("sched.scale_outs").inc();
  } else if (!latency_breach && omega_bar > omega_hat + epsilon &&
             omega_t > omega_hat + epsilon) {
    // (scale-in yields to an active latency breach: stripping the cores
    // that were just added to drain a queue would ping-pong forever)
    if (forecast_peak_pending) {
      // A forecast peak is due inside the lead window: hold the surplus
      // rather than shedding capacity the spike is about to need.
      action = "hold_forecast";
      if (env_.metrics != nullptr) {
        env_.metrics->counter("sched.forecast_holds").inc();
      }
    } else {
      // Over-provisioned: shed cores while the projection stays safely
      // above the constraint (half the tolerance kept as hysteresis).
      auto shed = allocator_.scaleIn(deployment, state.input_rate, power,
                                     strategy_, omega_hat + 0.5 * epsilon,
                                     measured_ptr, state.now);
      migrations.insert(migrations.end(), shed.begin(), shed.end());
      action = "scale_in";
      if (env_.metrics != nullptr) env_.metrics->counter("sched.scale_ins").inc();
    }
  }
  if (env_.tracer.enabled()) {
    env_.tracer.emit(obs::SchedulerDecisionEvent{.t = state.now,
                                                 .interval = state.interval,
                                                 .phase = "resource",
                                                 .action = action,
                                                 .omega = omega_t,
                                                 .omega_bar = omega_bar,
                                                 .theta = kNoTheta,
                                                 .rejected = {}});
  }

  // The local strategy acts on local knowledge and releases an empty VM as
  // soon as it sees one; the global strategy knows the hour is already
  // paid for and keeps the VM around for reuse until the hour lapses.
  const auto policy = config_.release_policy_override.value_or(
      strategy_ == Strategy::Local
          ? ResourceAllocator::ReleasePolicy::Immediate
          : ResourceAllocator::ReleasePolicy::AtHourBoundary);
  allocator_.releaseEmptyVms(policy, state.now, env_.sim_config.interval_s);
  return migrations;
}

}  // namespace dds

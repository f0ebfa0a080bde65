#include "dds/sched/reactive_autoscaler.hpp"

#include <limits>

#include "dds/sched/alternate_selection.hpp"

namespace dds {

ReactiveAutoscaler::ReactiveAutoscaler(SchedulerEnv env,
                                       ReactiveOptions options)
    : env_(env.validated()),
      options_(options),
      allocator_(*env_.dataflow, *env_.cloud, env_.omega_target),
      idle_streak_(env_.dataflow->peCount(), 0) {
  options_.validate();
  allocator_.setObservability(env_.tracer, env_.metrics);
}

Deployment ReactiveAutoscaler::deploy(double estimated_input_rate) {
  DDS_REQUIRE(estimated_input_rate >= 0.0,
              "estimated input rate must be non-negative");
  (void)estimated_input_rate;  // no model: the estimate cannot be used
  Deployment deployment(*env_.dataflow);
  // No notion of alternates as a control: run the best-value code.
  selectBestValueAlternates(*env_.dataflow, deployment);
  // Cold start: one core per PE, growth is purely reactive.
  allocator_.ensureMinimumCores(0.0);
  return deployment;
}

std::vector<MigrationEvent> ReactiveAutoscaler::adapt(
    const ObservedState& state, Deployment& deployment) {
  (void)deployment;  // alternates never change
  if (state.last_interval == nullptr ||
      state.last_interval->pe_stats.size() != idle_streak_.size()) {
    return {};
  }
  const Dataflow& df = *env_.dataflow;
  std::vector<MigrationEvent> migrations;
  int cores_grown = 0;
  int cores_shrunk = 0;

  for (const auto& element : df.pes()) {
    const PeId pe = element.id();
    const auto& st = state.last_interval->pe_stats[pe.value()];
    const int cores = totalCores(*env_.cloud, pe);
    if (cores == 0) continue;
    const double backlog_per_core =
        st.backlog_msgs / static_cast<double>(cores);

    if (backlog_per_core > options_.backlog_hi_per_core) {
      // Pressure: one more core, wherever it fits (acquire when needed).
      idle_streak_[pe.value()] = 0;
      for (const VmId id : env_.cloud->activeIds()) {
        const VmInstance& vm = env_.cloud->instance(id);
        if (vm.freeCoreCount() > 0) {
          env_.cloud->allocateCore(id, pe);
          ++cores_grown;
          if (env_.tracer.enabled()) {
            env_.tracer.emit(obs::CoreAllocEvent{
                .t = state.now, .vm = id.value(), .pe = pe.value(),
                .delta = 1});
          }
          goto next_pe;  // grew on an existing VM
        }
      }
      // Naive baseline: one shot, no retry or fallback — a rejected
      // acquisition just leaves the backlog to trigger again next interval.
      if (const auto got = env_.cloud->tryAcquire(
              env_.cloud->catalog().largest(), state.now);
          got.ok()) {
        env_.cloud->allocateCore(got.vm, pe);
        ++cores_grown;
        if (env_.tracer.enabled()) {
          env_.tracer.emit(obs::CoreAllocEvent{
              .t = state.now, .vm = got.vm.value(), .pe = pe.value(),
              .delta = 1});
        }
      }
    } else if (backlog_per_core < options_.backlog_lo_per_core &&
               st.relative_throughput >= 1.0 - 1e-9) {
      if (++idle_streak_[pe.value()] >= options_.cooldown_intervals &&
          cores > 1) {
        // Idle long enough: drop one core from the least-loaded host VM.
        idle_streak_[pe.value()] = 0;
        const auto hosts = peCores(*env_.cloud, pe);
        const VmCores* victim = &hosts.front();
        for (const auto& vc : hosts) {
          if (env_.cloud->instance(vc.vm).allocatedCoreCount() <
              env_.cloud->instance(victim->vm).allocatedCoreCount()) {
            victim = &vc;
          }
        }
        env_.cloud->releaseCoreOf(victim->vm, pe);
        ++cores_shrunk;
        if (env_.tracer.enabled()) {
          env_.tracer.emit(obs::CoreAllocEvent{
              .t = state.now, .vm = victim->vm.value(), .pe = pe.value(),
              .delta = -1});
        }
        if (victim->cores == 1) {
          migrations.push_back(
              {pe, 1.0 / static_cast<double>(cores)});
        }
      }
    } else {
      idle_streak_[pe.value()] = 0;
    }
  next_pe:;
  }

  // No billing awareness: empty VMs go back immediately.
  allocator_.releaseEmptyVms(ResourceAllocator::ReleasePolicy::Immediate,
                             state.now, env_.sim_config.interval_s);
  if (env_.tracer.enabled()) {
    const char* action = "hold";
    if (cores_grown > 0 && cores_shrunk > 0) {
      action = "rebalance";
    } else if (cores_grown > 0) {
      action = "grow";
    } else if (cores_shrunk > 0) {
      action = "shrink";
    }
    const double omega_t = state.last_interval != nullptr
                               ? state.last_interval->omega
                               : 1.0;
    env_.tracer.emit(obs::SchedulerDecisionEvent{
        .t = state.now,
        .interval = state.interval,
        .phase = "resource",
        .action = action,
        .omega = omega_t,
        .omega_bar = state.average_omega,
        .theta = std::numeric_limits<double>::quiet_NaN(),
        .rejected = {}});
  }
  if (env_.metrics != nullptr) {
    if (cores_grown > 0) env_.metrics->counter("sched.scale_outs").inc();
    if (cores_shrunk > 0) env_.metrics->counter("sched.scale_ins").inc();
  }
  return migrations;
}

}  // namespace dds

// Test-side helpers that step an event simulator directly — the product's
// EventSimulator or oracle::ReferenceEventSimulator — on a fixed
// deployment, or under a bare monitor-adapt-execute loop. Experiment runs
// go through SimulationEngine, which owns the full interval loop; these
// exist so tests can compare whole EventSimResults (every latency sample,
// queue-wait stat and counter), which an ExperimentResult does not carry.
#pragma once

#include "dds/common/time.hpp"
#include "dds/eventsim/event_simulator.hpp"
#include "dds/sched/scheduler.hpp"
#include "dds/workload/rate_profile.hpp"

namespace dds {

/// Step `sim` through every interval of `horizon_s` under `dep`, each at
/// `profile`'s rate at the interval start. `interval_s` must match the
/// simulator's EventSimConfig::interval_s.
template <class Simulator>
EventSimResult runFixed(Simulator& sim, const RateProfile& profile,
                        const Deployment& dep, SimTime horizon_s = 600.0,
                        SimTime interval_s = 60.0) {
  const IntervalClock clock(interval_s, horizon_s);
  for (IntervalIndex i = 0; i < clock.intervalCount(); ++i) {
    (void)sim.step(i, profile.rate(clock.startOf(i)), dep);
  }
  return sim.result();
}

/// As runFixed, but `sched` adapts `dep` before every interval after the
/// first, seeing the previous interval's rate and metrics; its migrations
/// move backlog with no downtime. No faults, probes or forecasts.
template <class Simulator>
EventSimResult runAdaptive(Simulator& sim, Scheduler& sched,
                           const RateProfile& profile, Deployment dep,
                           SimTime horizon_s = 600.0,
                           SimTime interval_s = 60.0) {
  const IntervalClock clock(interval_s, horizon_s);
  double omega_sum = 0.0;
  IntervalMetrics last{};
  for (IntervalIndex i = 0; i < clock.intervalCount(); ++i) {
    if (i > 0) {
      ObservedState state;
      state.interval = i;
      state.now = clock.startOf(i);
      state.input_rate = profile.rate(clock.startOf(i - 1));
      state.average_omega = omega_sum / static_cast<double>(i);
      state.last_interval = &last;
      for (const MigrationEvent& ev : sched.adapt(state, dep)) {
        sim.migrateBacklog(ev.pe, ev.backlog_fraction);
      }
    }
    last = sim.step(i, profile.rate(clock.startOf(i)), dep);
    omega_sum += last.omega;
  }
  return sim.result();
}

}  // namespace dds

#include "dds/sched/resilience.hpp"

namespace dds {

StragglerGuard::StragglerGuard(const CloudProvider& cloud,
                               const MonitoringService& monitor,
                               ResilienceOptions options)
    : cloud_(&cloud), monitor_(&monitor), options_(options) {
  options_.validate();
}

std::vector<VmId> StragglerGuard::probe(SimTime t) {
  std::vector<VmId> newly_quarantined;
  if (!options_.quarantineEnabled()) return newly_quarantined;

  for (const VmId vm : cloud_->activeIds()) {
    const VmInstance& inst = cloud_->instance(vm);
    if (blacklist_.contains(vm)) continue;
    if (!inst.isReady(t)) continue;
    const double rated = monitor_->ratedCorePower(vm);
    if (rated <= 0.0) continue;
    const double ratio = monitor_->observedCorePower(vm, t) / rated;

    auto [it, inserted] = tracks_.try_emplace(vm, Track{ratio, 0});
    Track& track = it->second;
    if (!inserted) {
      track.smoothed_ratio = options_.straggler_alpha * ratio +
                             (1.0 - options_.straggler_alpha) *
                                 track.smoothed_ratio;
    }
    if (track.smoothed_ratio < options_.straggler_threshold) {
      ++track.consecutive_low;
    } else {
      if (track.consecutive_low > 0 && tracer_.enabled()) {
        // A suspect recovered before crossing the quarantine bar.
        tracer_.emit(obs::StragglerRecoveryEvent{.t = t, .vm = vm.value()});
      }
      track.consecutive_low = 0;
    }
    if (track.consecutive_low >= options_.straggler_probes) {
      blacklist_.insert(vm);
      newly_quarantined.push_back(vm);
    }
  }
  return newly_quarantined;
}

}  // namespace dds

#include "dds/sched/resilience.hpp"

#include "dds/common/error.hpp"

namespace dds {

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

StragglerGuard::StragglerGuard(const CloudProvider& cloud,
                               const MonitoringService& monitor,
                               ResilienceConfig options)
    : cloud_(&cloud), monitor_(&monitor), options_(options) {
  requireValid(options_, "resilience config");
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
      track.smoothed_ratio = kStragglerAlpha * ratio +
                             (1.0 - kStragglerAlpha) * track.smoothed_ratio;
    }
    if (track.smoothed_ratio < options_.quarantine_threshold) {
      ++track.consecutive_low;
    } else {
      if (track.consecutive_low > 0 && tracer_.enabled()) {
        // A suspect recovered before crossing the quarantine bar.
        tracer_.emit(obs::StragglerRecoveryEvent{.t = t, .vm = vm.value()});
      }
      track.consecutive_low = 0;
    }
    if (track.consecutive_low >= options_.quarantine_probes) {
      blacklist_.insert(vm);
      newly_quarantined.push_back(vm);
    }
  }
  return newly_quarantined;
}

}  // namespace dds

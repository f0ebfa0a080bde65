#include "dds/monitor/probe_history.hpp"

namespace dds {

ProbeHistory::ProbeHistory(const MonitoringService& monitor, double alpha)
    : monitor_(&monitor), alpha_(alpha) {
  DDS_REQUIRE(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
}

void ProbeHistory::probe(SimTime t) {
  DDS_REQUIRE(t >= last_probe_, "probe times must be non-decreasing");
  last_probe_ = t;
  ++probes_;
  const CloudProvider& cloud = monitor_->cloud();
  for (const VmId vm : cloud.activeIds()) {
    // A provisioning VM observes zero power by definition, not because it
    // is slow; folding that into the EWMA would poison the estimate the
    // schedulers (and the straggler guard) plan against.
    if (!cloud.instance(vm).isReady(t)) continue;
    const double observed = monitor_->observedCorePower(vm, t);
    const auto it = smoothed_.find(vm);
    if (it == smoothed_.end()) {
      smoothed_.emplace(vm, observed);
    } else {
      it->second = alpha_ * observed + (1.0 - alpha_) * it->second;
    }
  }
}

double ProbeHistory::smoothedCorePower(VmId vm) const {
  const auto it = smoothed_.find(vm);
  if (it != smoothed_.end()) return it->second;
  return monitor_->ratedCorePower(vm);
}

}  // namespace dds

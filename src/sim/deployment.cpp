#include "dds/sim/deployment.hpp"

namespace dds {

std::vector<VmCores> peCores(const CloudProvider& cloud, PeId pe) {
  std::vector<VmCores> out;
  for (const VmId id : cloud.activeIds()) {
    const int n = cloud.instance(id).coresOwnedBy(pe);
    if (n > 0) out.push_back({id, n});
  }
  return out;
}

int totalCores(const CloudProvider& cloud, PeId pe) {
  int total = 0;
  for (const VmId id : cloud.activeIds()) {
    total += cloud.instance(id).coresOwnedBy(pe);
  }
  return total;
}

double ratedPowerOf(const CloudProvider& cloud, PeId pe) {
  double power = 0.0;
  for (const auto& vc : peCores(cloud, pe)) {
    power += static_cast<double>(vc.cores) *
             cloud.instance(vc.vm).spec().core_speed;
  }
  return power;
}

double observedPowerOf(const CloudProvider& cloud,
                       const MonitoringService& mon, PeId pe, SimTime t) {
  double power = 0.0;
  for (const auto& vc : peCores(cloud, pe)) {
    power += static_cast<double>(vc.cores) * mon.observedCorePower(vc.vm, t);
  }
  return power;
}

bool areColocated(const CloudProvider& cloud, PeId a, PeId b) {
  for (const VmId id : cloud.activeIds()) {
    const VmInstance& vm = cloud.instance(id);
    if (vm.coresOwnedBy(a) > 0 && vm.coresOwnedBy(b) > 0) return true;
  }
  return false;
}

int totalAllocatedCores(const CloudProvider& cloud) {
  int total = 0;
  for (const VmId id : cloud.activeIds()) {
    total += cloud.instance(id).allocatedCoreCount();
  }
  return total;
}

}  // namespace dds

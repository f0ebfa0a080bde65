#include "dds/sim/deployment_report.hpp"

#include <iomanip>
#include <sstream>

namespace dds {

std::string renderVmLayout(const Dataflow& df, const CloudProvider& cloud) {
  std::ostringstream os;
  for (const VmId id : cloud.activeIds()) {
    const VmInstance& vm = cloud.instance(id);
    os << "vm-" << id.value() << "  " << std::setw(10) << std::left
       << vm.spec().name << "  $" << vm.spec().price_per_hour << "/h  [";
    for (int c = 0; c < vm.coreCount(); ++c) {
      if (c > 0) os << '|';
      const auto owner = vm.coreOwner(c);
      os << (owner.has_value() ? df.pe(*owner).name() : std::string("--"));
    }
    os << "]\n";
  }
  if (cloud.activeIds().empty()) os << "(no active VMs)\n";
  return os.str();
}

std::string renderPeAllocations(const Dataflow& df,
                                const CloudProvider& cloud,
                                const Deployment& deployment) {
  std::ostringstream os;
  for (const auto& pe : df.pes()) {
    const AlternateId active = deployment.activeAlternate(pe.id());
    const auto cores = peCores(cloud, pe.id());
    int total = 0;
    for (const auto& vc : cores) total += vc.cores;
    os << "PE " << pe.name() << " (" << pe.alternate(active).name
       << "): " << total << (total == 1 ? " core" : " cores")
       << ", rated power " << ratedPowerOf(cloud, pe.id()) << ", on "
       << cores.size() << (cores.size() == 1 ? " VM" : " VMs") << '\n';
  }
  return os.str();
}

std::string renderDeployment(const Dataflow& df, const CloudProvider& cloud,
                             const Deployment& deployment, SimTime now) {
  std::ostringstream os;
  os << "=== deployment of '" << df.name() << "' at t=" << now << "s ===\n"
     << renderVmLayout(df, cloud) << renderPeAllocations(df, cloud,
                                                         deployment)
     << "accumulated cost: $" << cloud.accumulatedCost(now) << '\n';
  return os.str();
}

}  // namespace dds

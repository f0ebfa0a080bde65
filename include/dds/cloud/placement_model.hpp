// Data-center placement model (paper §4).
//
// "Different VM instances of the same resource class show different
// performance due to placement ... There is no control over or knowledge
// of the actual VM placement within the data center and, consequently,
// the network connection behavior between the VMs."
//
// PlacementModel assigns every VM a rack deterministically (the tenant
// cannot choose or observe it directly — only its network effects).
// VM pairs in the same rack enjoy higher bandwidth and lower latency than
// cross-rack pairs; the MonitoringService composes these factors with the
// temporal trace coefficients, giving the full "over time and space"
// variability the paper describes.
#pragma once

#include <cstdint>

#include "dds/common/ids.hpp"

namespace dds {

/// Rack-level network locality factors: a pair in one rack sees twice the
/// rated bandwidth and half the rated latency; cross-rack pairs see the
/// rated network.
inline constexpr double kSameRackBandwidth = 2.0;
inline constexpr double kSameRackLatency = 0.5;
inline constexpr double kCrossRackBandwidth = 1.0;
inline constexpr double kCrossRackLatency = 1.0;

/// Deterministic rack assignment plus pairwise network factors.
class PlacementModel {
 public:
  /// `racks` racks in the (virtual) data center, at least one.
  PlacementModel(int racks, std::uint64_t seed);

  /// Rack of `vm`, in [0, racks). Pure function of (seed, vm id) — stable
  /// across queries and runs.
  [[nodiscard]] int rackOf(VmId vm) const;

  [[nodiscard]] bool sameRack(VmId a, VmId b) const {
    return rackOf(a) == rackOf(b);
  }

  /// Multiplier applied to the observed bandwidth between two VMs.
  [[nodiscard]] double bandwidthFactor(VmId a, VmId b) const {
    return sameRack(a, b) ? kSameRackBandwidth : kCrossRackBandwidth;
  }

  /// Multiplier applied to the observed latency between two VMs.
  [[nodiscard]] double latencyFactor(VmId a, VmId b) const {
    return sameRack(a, b) ? kSameRackLatency : kCrossRackLatency;
  }

 private:
  int racks_;
  std::uint64_t seed_;
};

}  // namespace dds

// The monitoring framework (paper §4).
//
// "To gauge the current behavior of the virtualized cloud resource, we
// presume a monitoring framework that periodically and noninvasively
// probes the performance of the cloud VMs and their network connectivity."
//
// MonitoringService answers two families of questions:
//  * rated*     — the deployment-time assumption: every VM performs at its
//                 class's rated spec and inter-VM bandwidth is the rated
//                 100 Mbps (paper §8.1).
//  * observed*  — the runtime truth: rated spec multiplied by the replayed
//                 trace coefficient for that VM (pair) at that time.
// Colocation (same VM) is modelled as in-memory transfer: zero latency,
// infinite bandwidth (§4).
#pragma once

#include <limits>

#include "dds/cloud/cloud_provider.hpp"
#include "dds/cloud/fault_model.hpp"
#include "dds/cloud/placement_model.hpp"
#include "dds/common/ids.hpp"
#include "dds/common/time.hpp"
#include "dds/trace/trace_replayer.hpp"

namespace dds {

/// Read-only performance oracle over the cloud, backed by trace replay.
class MonitoringService {
 public:
  /// Nominal one-way latency between distinct VMs before the coefficient
  /// is applied.
  static constexpr double kBaseLatencyMs = 1.0;

  /// Latency reported for a partitioned link: effectively infinite, but
  /// finite so downstream arithmetic (differences, sums) stays NaN-free.
  static constexpr double kPartitionLatencyMs = 1.0e9;

  MonitoringService(const CloudProvider& cloud,
                    const TraceReplayer& replayer,
                    const PlacementModel* placement = nullptr,
                    const PerfFaultModel* faults = nullptr)
      : cloud_(&cloud),
        replayer_(&replayer),
        placement_(placement),
        faults_(faults) {}

  /// Rated normalized power (pi) of one core of `vm`'s class.
  [[nodiscard]] double ratedCorePower(VmId vm) const {
    return cloud_->instance(vm).spec().core_speed;
  }

  /// Observed normalized power of `vm`'s cores at time `t`. Zero while
  /// the VM is still provisioning (startup delay); during a straggler
  /// episode the installed fault model degrades it below the trace value.
  [[nodiscard]] double observedCorePower(VmId vm, SimTime t) const {
    return observedCorePowerSample(vm, t).value;
  }

  /// Whether the link between `a` and `b` is currently partitioned
  /// (observed bandwidth 0, latency at the partition ceiling). Colocated
  /// traffic never partitions — it does not cross the network.
  [[nodiscard]] bool linkPartitioned(VmId a, VmId b, SimTime t) const {
    return a != b && faults_ != nullptr && faults_->linkPartitioned(a, b, t);
  }

  /// Rated bandwidth between two VMs: min of the two NICs' rated Mbps;
  /// infinite when `a == b` (in-memory).
  [[nodiscard]] double ratedBandwidthMbps(VmId a, VmId b) const {
    if (a == b) return std::numeric_limits<double>::infinity();
    return std::min(cloud_->instance(a).spec().bandwidth_mbps,
                    cloud_->instance(b).spec().bandwidth_mbps);
  }

  /// Observed bandwidth between two VMs at time `t` (beta_ij(t)):
  /// rated spec x temporal trace coefficient x spatial placement factor.
  [[nodiscard]] double observedBandwidthMbps(VmId a, VmId b,
                                             SimTime t) const {
    if (a == b) return std::numeric_limits<double>::infinity();
    return observedBandwidthSample(a, b, t).value;
  }

  /// Observed one-way latency in milliseconds (lambda_ij(t)); zero when
  /// colocated, the partition ceiling while the link is partitioned.
  [[nodiscard]] double observedLatencyMs(VmId a, VmId b, SimTime t) const {
    if (a == b) return 0.0;
    return observedLatencySample(a, b, t).value;
  }

  /// Sample variants of the observed* queries: same value plus the time
  /// until which the value is guaranteed not to change — callers may
  /// cache it for any t' in [t, valid_until) and stay bit-identical to
  /// per-query replay. Each observed quantity's formula lives here once.
  /// With a fault model installed the windows collapse to the query time
  /// (valid_until == t): fault episodes have no boundary query, so the
  /// only exact window is the empty one and callers recompute per query.
  [[nodiscard]] CoeffSample observedCorePowerSample(VmId vm,
                                                    SimTime t) const {
    const VmInstance& inst = cloud_->instance(vm);
    if (!inst.isReady(t)) return {0.0, inst.readyTime()};
    const double fault = faults_ != nullptr
                             ? faults_->cpuFactor(vm, inst.startTime(), t)
                             : 1.0;
    const CoeffSample c = replayer_->cpuCoeffSample(vm, t);
    return {ratedCorePower(vm) * c.value * fault, windowEnd(c, t)};
  }

  [[nodiscard]] CoeffSample observedBandwidthSample(VmId a, VmId b,
                                                    SimTime t) const {
    DDS_REQUIRE(a != b, "bandwidth between a VM and itself is infinite");
    if (linkPartitioned(a, b, t)) return {0.0, t};
    const CoeffSample c = replayer_->bandwidthCoeffSample(a, b, t);
    const double spatial =
        placement_ != nullptr ? placement_->bandwidthFactor(a, b) : 1.0;
    return {ratedBandwidthMbps(a, b) * c.value * spatial, windowEnd(c, t)};
  }

  [[nodiscard]] CoeffSample observedLatencySample(VmId a, VmId b,
                                                  SimTime t) const {
    DDS_REQUIRE(a != b, "latency between a VM and itself is zero by model");
    if (linkPartitioned(a, b, t)) return {kPartitionLatencyMs, t};
    const CoeffSample c = replayer_->latencyCoeffSample(a, b, t);
    const double spatial =
        placement_ != nullptr ? placement_->latencyFactor(a, b) : 1.0;
    return {kBaseLatencyMs * c.value * spatial, windowEnd(c, t)};
  }

  [[nodiscard]] const CloudProvider& cloud() const { return *cloud_; }

  [[nodiscard]] const PlacementModel* placement() const {
    return placement_;
  }

 private:
  /// End of an exact window: the trace's, or the query time itself under
  /// a fault model.
  [[nodiscard]] SimTime windowEnd(const CoeffSample& c, SimTime t) const {
    return faults_ != nullptr ? t : c.valid_until;
  }

  const CloudProvider* cloud_;
  const TraceReplayer* replayer_;
  const PlacementModel* placement_ = nullptr;
  const PerfFaultModel* faults_ = nullptr;
};

}  // namespace dds

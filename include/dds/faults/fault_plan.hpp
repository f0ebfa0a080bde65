// Deterministic cloud-turbulence plan (paper §9 future work; the fault
// regime of "Toward Reliable and Rapid Elasticity for Streaming Dataflows
// on Clouds", Shukla & Simmhan — see PAPERS.md).
//
// FaultPlan covers five event families:
//  * VM crash            — exponential per-VM lifetimes; a crash frees the
//                          VM's cores, loses the hosted PEs' queued share
//                          and stops billing (the started hour is paid);
//  * degraded VM         — straggler episodes: observed π drops to a
//                          fraction of rated for a fixed duration,
//                          recurring with exponential gaps per VM;
//  * acquisition faults  — tryAcquire() can reject a request outright or
//                          deliver a VM whose capacity only comes online
//                          after an exponential provisioning lag;
//  * network partition   — β→0 / λ→ceiling between a VM pair for a
//                          window, recurring with exponential gaps per
//                          unordered pair;
//  * spot preemption     — the provider reclaims preemptible VMs after a
//                          warning notice, billed under the preemption
//                          rule.
//
// Determinism contract: every draw is a pure function of (seed, entity
// key, episode index) via stateless splitmix64 hashing — independent of
// query order, so repeated runs of the same seeded experiment produce
// identical fault timelines. Schedulers never consult this class; faults
// reach them only through MonitoringService (observed π, β, λ) and
// CloudProvider::tryAcquire's AcquisitionResult.
#pragma once

#include <cstdint>
#include <vector>

#include "dds/cloud/cloud_provider.hpp"
#include "dds/cloud/fault_model.hpp"
#include "dds/common/ids.hpp"
#include "dds/common/time.hpp"

namespace dds {

/// One queued-message loss caused by a crash or preemption.
struct BacklogLoss {
  PeId pe;
  double fraction = 0.0;  ///< share of the PE's backlog that is gone.
};

/// What one crash or preemption did.
struct FailureEvent {
  VmId vm;
  SimTime time;
  std::vector<BacklogLoss> losses;
};

/// Knobs of all four fault families. A zero rate (or probability)
/// disables a family; everything disabled reproduces the ideal cloud.
struct FaultPlanConfig {
  std::uint64_t seed = 42;

  /// Crash family: mean time between failures per VM, hours; <= 0 off.
  double vm_mtbf_hours = 0.0;

  /// Straggler family: mean gap between degradation episodes per VM,
  /// hours (<= 0 off); during an episode the VM's observed core power is
  /// `straggler_factor` of its healthy value for `straggler_duration_s`.
  double straggler_mtbf_hours = 0.0;
  double straggler_factor = 0.3;
  double straggler_duration_s = 600.0;

  /// Acquisition family: probability each acquisition attempt is
  /// rejected, and the mean exponential startup lag of accepted VMs
  /// (0 = instant). The per-core term makes the lag class-dependent:
  /// mean = provisioning_delay_s + per_core * (cores - 1), so larger
  /// instances take longer to materialize.
  double acquisition_failure_prob = 0.0;
  double provisioning_delay_s = 0.0;
  double provisioning_delay_per_core_s = 0.0;

  /// Spot-preemption family: mean time between provider reclamations per
  /// preemptible VM, hours (<= 0 off), announced `spot_notice_s` seconds
  /// in advance (the AWS-style warning notice). Only VMs of a
  /// preemptible resource class are ever reclaimed.
  double spot_preemption_mtbf_hours = 0.0;
  double spot_notice_s = 120.0;

  /// Partition family: mean gap between transient partitions per
  /// unordered VM pair, hours (<= 0 off), each lasting
  /// `partition_duration_s`.
  double partition_mtbf_hours = 0.0;
  double partition_duration_s = 120.0;

  [[nodiscard]] bool crashesEnabled() const { return vm_mtbf_hours > 0.0; }
  [[nodiscard]] bool stragglersEnabled() const {
    return straggler_mtbf_hours > 0.0;
  }
  [[nodiscard]] bool acquisitionFaultsEnabled() const {
    return acquisition_failure_prob > 0.0 || provisioning_delay_s > 0.0 ||
           provisioning_delay_per_core_s > 0.0;
  }
  [[nodiscard]] bool partitionsEnabled() const {
    return partition_mtbf_hours > 0.0;
  }
  [[nodiscard]] bool preemptionsEnabled() const {
    return spot_preemption_mtbf_hours > 0.0;
  }
  [[nodiscard]] bool anyEnabled() const {
    return crashesEnabled() || stragglersEnabled() ||
           acquisitionFaultsEnabled() || partitionsEnabled() ||
           preemptionsEnabled();
  }

  void validate() const;
};

/// Seed-reproducible oracle for all fault families.
class FaultPlan final : public PerfFaultModel,
                        public AcquisitionFaultModel,
                        public PreemptionFaultModel {
 public:
  explicit FaultPlan(FaultPlanConfig config);

  [[nodiscard]] const FaultPlanConfig& config() const { return config_; }

  // -- crash family --

  /// Absolute time at which `vm` (started at `t_start`) crashes; infinity
  /// when the family is off. Pure function of (seed, vm, t_start).
  [[nodiscard]] SimTime deathTime(VmId vm, SimTime t_start) const;

  /// Crash every active VM whose death time is at or before `now`: frees
  /// its cores, terminates it (billing stops at the crash) and reports
  /// per-PE backlog-loss fractions for the caller's simulator.
  /// Idempotent: crashed VMs are inactive, so a repeated call at the same
  /// time reports nothing new.
  [[nodiscard]] std::vector<FailureEvent> injectUpTo(CloudProvider& cloud,
                                                     SimTime now) const;

  // -- straggler family --

  /// Whether `vm` is inside a straggler episode at `t`.
  [[nodiscard]] bool isStraggling(VmId vm, SimTime vm_start, SimTime t) const;

  /// PerfFaultModel: straggler_factor during an episode, 1 otherwise.
  [[nodiscard]] double cpuFactor(VmId vm, SimTime vm_start,
                                 SimTime t) const override;

  // -- partition family --

  /// PerfFaultModel: symmetric in (a, b); pure in (seed, pair, t).
  [[nodiscard]] bool linkPartitioned(VmId a, VmId b,
                                     SimTime t) const override;

  // -- acquisition family --

  /// AcquisitionFaultModel: the n-th attempt's fate, pure in (seed, n).
  [[nodiscard]] bool acquisitionRejected(std::uint64_t attempt) const override;

  /// AcquisitionFaultModel: startup lag, pure in (seed, vm) with a
  /// class-dependent mean. With provisioning_delay_per_core_s = 0 the
  /// draw is bit-identical to the class-independent model.
  [[nodiscard]] SimTime provisioningDelay(
      VmId vm, const ResourceClass& cls) const override;

  // -- spot-preemption family --

  /// PreemptionFaultModel: when the provider reclaims a preemptible VM
  /// started at `vm_start`; infinity when the family is off. Pure in
  /// (seed, vm, vm_start).
  [[nodiscard]] SimTime preemptionTime(VmId vm,
                                       SimTime vm_start) const override;

  /// PreemptionFaultModel: warning-notice lead time, seconds.
  [[nodiscard]] SimTime noticeWindow() const override {
    return config_.spot_notice_s;
  }

  /// Preempt every active preemptible VM whose preemption time is at or
  /// before `now`: frees its cores, terminates it with the Preempted
  /// billing rule, and reports per-PE backlog-loss fractions (undrained
  /// buffers on the reclaimed VM are lost, exactly like a crash).
  /// Idempotent across repeated calls at the same time.
  [[nodiscard]] std::vector<FailureEvent> injectPreemptionsUpTo(
      CloudProvider& cloud, SimTime now) const;

  /// Whether this plan perturbs what monitoring observes (stragglers or
  /// partitions) — callers skip installing the hook otherwise.
  [[nodiscard]] bool perturbsPerformance() const {
    return config_.stragglersEnabled() || config_.partitionsEnabled();
  }

  /// Whether this plan perturbs acquisitions.
  [[nodiscard]] bool perturbsAcquisition() const {
    return config_.acquisitionFaultsEnabled();
  }

  /// Whether this plan schedules spot preemptions.
  [[nodiscard]] bool perturbsSpot() const {
    return config_.preemptionsEnabled();
  }

 private:
  FaultPlanConfig config_;
};

}  // namespace dds

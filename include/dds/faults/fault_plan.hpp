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
#include <string>
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

/// Injected cloud turbulence (all families default off; fluid-only). A
/// zero rate (or probability) disables a family; everything disabled
/// reproduces the ideal cloud.
struct FaultConfig {
  /// Mean time between failures per VM, hours; 0 disables fault injection
  /// (§9 future work: fault tolerance via re-allocation and alternates).
  double vm_mtbf_hours = 0.0;
  /// Degraded-VM (straggler) episodes: mean time between episodes per VM,
  /// hours; 0 disables. During an episode the VM's observed core power
  /// drops to `straggler_factor` of its trace-modulated value for
  /// `straggler_duration_s` seconds.
  double straggler_mtbf_hours = 0.0;
  double straggler_factor = 0.3;
  double straggler_duration_s = 600.0;
  /// Probability the provider rejects one acquisition attempt; 0 disables.
  /// (Provisioning lag lives in ElasticityConfig.)
  double acquisition_failure_prob = 0.0;
  /// Transient network partitions: mean time between partition episodes
  /// per VM pair, hours; 0 disables. A partitioned pair sees zero
  /// bandwidth and effectively infinite latency for
  /// `partition_duration_s` seconds.
  double partition_mtbf_hours = 0.0;
  double partition_duration_s = 120.0;

  [[nodiscard]] bool crashesEnabled() const { return vm_mtbf_hours > 0.0; }
  [[nodiscard]] bool stragglersEnabled() const {
    return straggler_mtbf_hours > 0.0;
  }
  [[nodiscard]] bool rejectionsEnabled() const {
    return acquisition_failure_prob > 0.0;
  }
  [[nodiscard]] bool partitionsEnabled() const {
    return partition_mtbf_hours > 0.0;
  }
  /// Whether any fault family is switched on.
  [[nodiscard]] bool anyEnabled() const {
    return crashesEnabled() || stragglersEnabled() || rejectionsEnabled() ||
           partitionsEnabled();
  }

  /// Append one message per invalid field to `errors` (never throws).
  void appendErrors(std::vector<std::string>& errors) const;

  bool operator==(const FaultConfig&) const = default;
};

/// Rapid-elasticity realism knobs (all default off; delays and spot are
/// fluid-only like the fault families, migration downtime works on both
/// backends). Disabled, runs are bit-identical to the ideal cloud.
struct ElasticityConfig {
  /// Mean exponential provisioning lag between acquire and the VM coming
  /// online, seconds; the per-core term adds class dependence
  /// (mean = base + per_core * (cores - 1)), so larger instances take
  /// longer to materialize. 0/0 = instant delivery. Billing starts at
  /// acquisition either way — provisioning is paid for.
  double provisioning_delay_s = 0.0;
  double provisioning_delay_per_core_s = 0.0;
  /// Spot market: discount in (0, 1) on the on-demand price (0 disables
  /// the spot tier entirely), mean time between provider reclamations
  /// per spot VM in hours, and the warning-notice lead time in seconds
  /// (the AWS-style notice). Only VMs of a preemptible resource class are
  /// ever reclaimed.
  double spot_discount = 0.0;
  double spot_preemption_mtbf_h = 0.0;
  double spot_notice_s = 120.0;
  /// Fraction of the heuristic allocator's acquisitions steered to the
  /// spot tier when one exists (seed-deterministic per acquisition).
  double spot_fraction = 1.0;
  /// Per-PE buffered state, MB; on migration (scale-in, quarantine,
  /// preemption drain) the moved share pauses service while it transfers
  /// at `migration_bandwidth_mbps`. 0 = instant migration.
  double pe_state_mb = 0.0;
  double migration_bandwidth_mbps = 100.0;

  [[nodiscard]] bool delaysEnabled() const {
    return provisioning_delay_s > 0.0 || provisioning_delay_per_core_s > 0.0;
  }
  /// Mean provisioning lag of a `cores`-core class, seconds.
  [[nodiscard]] double meanProvisioningDelay(int cores) const {
    return provisioning_delay_s +
           provisioning_delay_per_core_s * static_cast<double>(cores - 1);
  }
  [[nodiscard]] bool spotEnabled() const { return spot_discount > 0.0; }
  [[nodiscard]] bool preemptionsEnabled() const {
    return spot_preemption_mtbf_h > 0.0;
  }
  [[nodiscard]] bool migrationEnabled() const { return pe_state_mb > 0.0; }
  [[nodiscard]] bool anyEnabled() const {
    return delaysEnabled() || spotEnabled() || migrationEnabled();
  }

  /// Append one message per invalid field to `errors` (never throws).
  void appendErrors(std::vector<std::string>& errors) const;

  bool operator==(const ElasticityConfig&) const = default;
};

/// Seed-reproducible oracle for all fault families.
class FaultPlan final : public PerfFaultModel,
                        public AcquisitionFaultModel,
                        public PreemptionFaultModel {
 public:
  /// Draws from `seed`; throws PreconditionError listing every invalid
  /// field of `faults` and `elasticity`.
  FaultPlan(std::uint64_t seed, const FaultConfig& faults,
            const ElasticityConfig& elasticity);

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
    return elasticity_.spot_notice_s;
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
    return faults_.stragglersEnabled() || faults_.partitionsEnabled();
  }

  /// Whether this plan perturbs acquisitions.
  [[nodiscard]] bool perturbsAcquisition() const {
    return faults_.rejectionsEnabled() || elasticity_.delaysEnabled();
  }

  /// Whether this plan schedules spot preemptions.
  [[nodiscard]] bool perturbsSpot() const {
    return elasticity_.preemptionsEnabled();
  }

 private:
  std::uint64_t seed_;
  FaultConfig faults_;
  ElasticityConfig elasticity_;
};

}  // namespace dds

// The elastic IaaS provider (paper §4).
//
// Tracks every VM instance ever acquired (R(t)), supports elastic
// acquire/release, and accrues cost with the commercial-cloud billing rule:
// usage is rounded up to the next hour boundary, and a started hour is
// charged in full even if the VM is released earlier.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "dds/cloud/fault_model.hpp"
#include "dds/cloud/resource_class.hpp"
#include "dds/cloud/vm_instance.hpp"
#include "dds/common/ids.hpp"
#include "dds/common/time.hpp"
#include "dds/obs/trace_sink.hpp"

namespace dds {

/// Owns the resource catalog and the full VM instance history of one run.
class CloudProvider {
 public:
  explicit CloudProvider(ResourceCatalog catalog)
      : catalog_(std::make_shared<const ResourceCatalog>(
            std::move(catalog))) {}

  /// Share an immutable catalog across providers (one per concurrent job
  /// in a campaign) instead of copying it into each.
  explicit CloudProvider(std::shared_ptr<const ResourceCatalog> catalog)
      : catalog_(std::move(catalog)) {
    DDS_REQUIRE(catalog_ != nullptr, "catalog must not be null");
  }

  [[nodiscard]] const ResourceCatalog& catalog() const { return *catalog_; }

  /// The shared handle (for callers wiring sibling components to the
  /// same arena).
  [[nodiscard]] const std::shared_ptr<const ResourceCatalog>& catalogPtr()
      const {
    return catalog_;
  }

  /// Install a fault model consulted by tryAcquire(); nullptr (the
  /// default) restores the ideal provider whose requests never fail.
  void setAcquisitionFaults(const AcquisitionFaultModel* faults) {
    acq_faults_ = faults;
  }

  /// Install the spot-market preemption schedule; nullptr (the default)
  /// means spot instances are never reclaimed.
  void setPreemptionModel(const PreemptionFaultModel* model) {
    preemption_model_ = model;
  }

  /// Attach the run's tracer; VM lifecycle events (acquire, release,
  /// rejected acquisition) are emitted through it.
  void setTracer(obs::Tracer tracer) { tracer_ = tracer; }

  /// Start a new VM of the given class at time `t`; returns its id.
  /// The ideal acquisition path: never fails, capacity instantly online.
  VmId acquire(ResourceClassId cls, SimTime t);

  /// Elastic acquisition under cloud turbulence: the installed fault
  /// model may reject the request outright or impose a provisioning lag
  /// (the VM bills from `t` but delivers no observed power until
  /// `ready_time`). Without a fault model this is exactly acquire().
  [[nodiscard]] AcquisitionResult tryAcquire(ResourceClassId cls, SimTime t);

  /// Acquisition attempts rejected by the fault model so far.
  [[nodiscard]] int rejectedAcquisitions() const { return rejections_; }

  /// Stop a VM at time `t`. All of its cores must have been released first
  /// (the scheduler migrates PEs away before shutdown).
  void release(VmId id, SimTime t);

  /// Stop a VM at time `t` with an explicit termination reason. Crash and
  /// preemption terminations do not require the cores to be freed first —
  /// the instance dies under its tenants. Preempted VMs follow the spot
  /// convention: the provider forgives the partial final hour.
  void terminate(VmId id, SimTime t, TerminationReason reason);

  /// Provider-initiated reclamation of a spot VM (terminate + Preempted).
  void preempt(VmId id, SimTime t) {
    terminate(id, t, TerminationReason::Preempted);
  }

  /// When the installed preemption model reclaims `vm`; infinity when the
  /// VM is not preemptible or no model is installed. Pure in (seed, vm),
  /// so schedulers may query it freely — this models the provider's
  /// warning-notice API, not an oracle leak.
  [[nodiscard]] SimTime preemptionTimeOf(VmId id) const;

  /// Warning-notice lead time of the installed preemption model (0
  /// without one).
  [[nodiscard]] SimTime noticeWindow() const {
    return preemption_model_ != nullptr ? preemption_model_->noticeWindow()
                                        : 0.0;
  }

  /// Whether `vm`'s preemption notice has been served by time `t`: the
  /// provider has announced that the instance will be reclaimed within
  /// the notice window.
  [[nodiscard]] bool preemptionImminent(VmId id, SimTime t) const {
    const SimTime at = preemptionTimeOf(id);
    return at != std::numeric_limits<SimTime>::infinity() &&
           t >= at - noticeWindow();
  }

  [[nodiscard]] const VmInstance& instance(VmId id) const {
    DDS_REQUIRE(id.value() < instances_.size(), "unknown VM id");
    return instances_[id.value()];
  }

  /// Grant one free core of `vm` to `pe`.
  /// Throws PreconditionError when the VM is full or stopped.
  void allocateCore(VmId vm, PeId pe) {
    mutableInstance(vm).allocateCore(pe);
    ++ledger_generation_;
  }

  /// Free one core of `vm` owned by `pe`.
  /// Throws PreconditionError when `pe` owns no core there.
  void releaseCoreOf(VmId vm, PeId pe) {
    mutableInstance(vm).releaseCoreOf(pe);
    ++ledger_generation_;
  }

  /// Free every core of `vm` owned by `pe`; returns how many were freed.
  int releaseAllCoresOf(VmId vm, PeId pe) {
    const int freed = mutableInstance(vm).releaseAllCoresOf(pe);
    if (freed > 0) ++ledger_generation_;
    return freed;
  }

  /// Monotonic counter that advances exactly when the core-allocation
  /// ledger changes: a core changes owner (allocateCore, releaseCoreOf,
  /// releaseAllCoresOf when it frees a core) or the active set changes
  /// (acquisition, release, preemption, crash). Reads never move it.
  /// Simulator hot paths snapshot per-PE core indexes and rebuild them
  /// only when this moves (paper §5's allocation state changes at
  /// adaptation granularity, so rebuilds are rare).
  [[nodiscard]] std::uint64_t ledgerGeneration() const {
    return ledger_generation_;
  }

  /// Total VMs ever acquired (|R(t)| including stopped ones).
  [[nodiscard]] std::size_t instanceCount() const {
    return instances_.size();
  }

  /// Ids of VMs still running, ascending. Maintained incrementally
  /// (appended on acquisition, erased on termination), so scans over the
  /// running set cost O(active VMs) rather than O(VMs ever acquired). The
  /// reference is invalidated by acquire, tryAcquire, release, terminate
  /// and preempt: callers that change the active set while iterating must
  /// walk an activeVms() snapshot instead.
  [[nodiscard]] const std::vector<VmId>& activeIds() const {
    return active_ids_;
  }

  /// A copy of activeIds(): the snapshot for callers that release or
  /// terminate VMs while iterating.
  [[nodiscard]] std::vector<VmId> activeVms() const { return active_ids_; }

  /// Every instance ever acquired, in VmId order (active and stopped).
  /// Only for readers that care about stopped VMs too (billing, per-VmId
  /// bookkeeping); scans of the running set walk activeIds().
  [[nodiscard]] const std::vector<VmInstance>& instances() const {
    return instances_;
  }

  /// Billed cost of one instance up to time `t` (mu_i[t], §4): the number
  /// of started hours between t_start and min(t_off, t), times the class
  /// hourly price. Zero before the VM starts.
  [[nodiscard]] double instanceCost(VmId id, SimTime t) const;

  /// Total accumulated cost across all instances up to time `t`.
  [[nodiscard]] double accumulatedCost(SimTime t) const;

  /// Seconds until `vm`'s next paid hour boundary at time `t`. Releasing a
  /// VM just before a boundary wastes the least of what is already paid;
  /// the runtime heuristics use this to time scale-in decisions.
  [[nodiscard]] SimTime timeToNextHourBoundary(VmId id, SimTime t) const;

  /// Number of whole started hours billed for `vm` up to `t`.
  [[nodiscard]] int billedHours(VmId id, SimTime t) const;

 private:
  VmId acquireInternal(ResourceClassId cls, SimTime t);

  VmInstance& mutableInstance(VmId id) {
    DDS_REQUIRE(id.value() < instances_.size(), "unknown VM id");
    return instances_[id.value()];
  }

  std::shared_ptr<const ResourceCatalog> catalog_;
  std::vector<VmInstance> instances_;
  std::vector<VmId> active_ids_;  ///< ascending ids of running instances.
  obs::Tracer tracer_;
  const AcquisitionFaultModel* acq_faults_ = nullptr;
  const PreemptionFaultModel* preemption_model_ = nullptr;
  std::uint64_t acquisition_attempts_ = 0;
  std::uint64_t ledger_generation_ = 0;
  int rejections_ = 0;
};

}  // namespace dds

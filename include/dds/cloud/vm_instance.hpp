// A VM instance and its per-core allocation ledger (paper §4-5).
//
// The paper isolates PE instances on dedicated cores: a PE (alternate) is
// granted whole CPU cores, possibly spanning VMs, and incoming messages are
// load-balanced across those cores. Each VmInstance therefore tracks which
// PE owns each of its cores.
#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "dds/common/error.hpp"
#include "dds/common/ids.hpp"
#include "dds/common/time.hpp"
#include "dds/cloud/resource_class.hpp"

namespace dds {

/// Why a VM stopped. Billing depends on who initiated the termination:
/// tenant-initiated shutdown (Released) and tenant-side crashes bill every
/// started hour, while provider-initiated spot preemption (Preempted)
/// forgives the partial final hour per the 2013 spot-market convention.
enum class TerminationReason { None, Released, Crashed, Preempted };

/// One acquired VM: identity, class, lifetime and core ownership.
class VmInstance {
 public:
  VmInstance(VmId id, ResourceClassId cls, const ResourceClass& spec,
             SimTime t_start)
      : id_(id),
        class_id_(cls),
        spec_(spec),
        t_start_(t_start),
        t_ready_(t_start),
        cores_(static_cast<std::size_t>(spec.cores), std::nullopt) {}

  [[nodiscard]] VmId id() const { return id_; }
  [[nodiscard]] ResourceClassId classId() const { return class_id_; }
  [[nodiscard]] const ResourceClass& spec() const { return spec_; }
  [[nodiscard]] SimTime startTime() const { return t_start_; }

  /// When the VM's capacity comes online. Equal to startTime() for an
  /// instant acquisition; later when the provider imposed a provisioning
  /// lag (billing starts at startTime() regardless — a started hour is a
  /// started hour).
  [[nodiscard]] SimTime readyTime() const { return t_ready_; }
  [[nodiscard]] bool isReady(SimTime t) const { return t >= t_ready_; }

  /// Shutdown time; infinity while the VM is active.
  [[nodiscard]] SimTime offTime() const { return t_off_; }
  [[nodiscard]] bool isActive() const {
    return t_off_ == std::numeric_limits<SimTime>::infinity();
  }

  /// How the VM stopped; None while it is still active.
  [[nodiscard]] TerminationReason terminationReason() const { return reason_; }

  [[nodiscard]] int coreCount() const { return spec_.cores; }

  /// O(1): the ledger mutators keep the allocated count current.
  [[nodiscard]] int freeCoreCount() const {
    return coreCount() - allocated_;
  }

  [[nodiscard]] int allocatedCoreCount() const { return allocated_; }

  /// Owner of core `index`, or nullopt when the core is free.
  [[nodiscard]] std::optional<PeId> coreOwner(int index) const {
    DDS_REQUIRE(index >= 0 && index < coreCount(), "core index out of range");
    return cores_[static_cast<std::size_t>(index)];
  }

  /// Number of cores currently owned by `pe`.
  [[nodiscard]] int coresOwnedBy(PeId pe) const {
    int n = 0;
    for (const auto& c : cores_) n += (c.has_value() && *c == pe) ? 1 : 0;
    return n;
  }

  /// Claim one free core for `pe`; returns the core index.
  /// Throws PreconditionError when the VM is full or inactive.
  int allocateCore(PeId pe) {
    DDS_REQUIRE(isActive(), "cannot allocate a core on a stopped VM");
    for (std::size_t i = 0; i < cores_.size(); ++i) {
      if (!cores_[i].has_value()) {
        cores_[i] = pe;
        ++allocated_;
        return static_cast<int>(i);
      }
    }
    throw PreconditionError("VM has no free core");
  }

  /// Release one core owned by `pe`; returns the freed core index.
  int releaseCoreOf(PeId pe) {
    for (std::size_t i = 0; i < cores_.size(); ++i) {
      if (cores_[i].has_value() && *cores_[i] == pe) {
        cores_[i] = std::nullopt;
        --allocated_;
        return static_cast<int>(i);
      }
    }
    throw PreconditionError("PE owns no core on this VM");
  }

  /// Release every core owned by `pe`; returns how many were freed.
  int releaseAllCoresOf(PeId pe) {
    int n = 0;
    for (auto& c : cores_) {
      if (c.has_value() && *c == pe) {
        c = std::nullopt;
        ++n;
      }
    }
    allocated_ -= n;
    return n;
  }

 private:
  friend class CloudProvider;

  void shutdown(SimTime t, TerminationReason reason) {
    DDS_REQUIRE(isActive(), "VM already stopped");
    DDS_REQUIRE(t >= t_start_, "shutdown before start");
    DDS_REQUIRE(reason != TerminationReason::None,
                "shutdown needs a termination reason");
    t_off_ = t;
    reason_ = reason;
  }

  void setReadyTime(SimTime t) {
    DDS_REQUIRE(t >= t_start_, "ready time precedes VM start");
    t_ready_ = t;
  }

  VmId id_;
  ResourceClassId class_id_;
  ResourceClass spec_;
  SimTime t_start_;
  SimTime t_ready_ = 0.0;  ///< set to t_start_ by the constructor.
  SimTime t_off_ = std::numeric_limits<SimTime>::infinity();
  TerminationReason reason_ = TerminationReason::None;
  std::vector<std::optional<PeId>> cores_;
  int allocated_ = 0;  ///< cores_ entries with an owner.
};

}  // namespace dds

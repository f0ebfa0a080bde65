// Windowed coefficient cache over MonitoringService lookups: the one memo
// both simulators read observed core power and pair bandwidth through.
//
// The *Sample queries report the exact end of each zero-order-hold
// stretch, so re-querying only when a window lapses returns bit-identical
// values to querying every time: a memoization, not an approximation.
// Queries must arrive with non-decreasing `t` per key (the fluid kernel
// steps intervals in order; the event simulator drains a time-ordered
// heap). Trace assignment is a pure function of the VM (pair), so a freed
// and re-created slot reads the same values.
//
// Storage is plain arrays, so a lookup pays no hashing: core power by VM
// id, and each directional pair's bandwidth slot through a dense
// [producer VM][consumer VM] table. VM ids are never reused, so sync()
// frees stopped producers' rows; the table then stays O(running VMs x VMs
// ever acquired) instead of ~(VMs ever acquired)^2 / 2 under churn.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "dds/cloud/cloud_provider.hpp"
#include "dds/common/time.hpp"
#include "dds/monitor/monitoring.hpp"

namespace dds {

class CoeffCache {
 public:
  explicit CoeffCache(const MonitoringService& monitor)
      : monitor_(&monitor) {}

  /// Size the per-VM arrays to cloud.instanceCount() and free the pair
  /// rows of stopped producers. Call on every ledger change, before
  /// querying a VM acquired since the last call.
  void sync(const CloudProvider& cloud);

  /// Observed core power of `vm` at `t`, re-queried only when the cached
  /// window has lapsed.
  [[nodiscard]] const CoeffSample& corePower(std::uint32_t vm, SimTime t) {
    CoeffSample& s = core_[vm];
    if (!(t < s.valid_until)) refreshCore(vm, t);
    return s;
  }

  /// The cached core power of `vm`, unchecked: exact only after
  /// corePower(vm, t) for the current query time.
  [[nodiscard]] double cachedCorePower(std::uint32_t vm) const {
    return core_[vm].value;
  }

  /// Slot of the directional pair (a -> b), created on first use. `a`
  /// must be below the instance count of the last sync(); a row grows to
  /// its largest consumer id. A freed row (stopped producer) is created
  /// again on its next use and freed again by the next sync().
  [[nodiscard]] std::uint32_t pairSlot(std::uint32_t a, std::uint32_t b);

  /// Observed bandwidth of `slot`'s pair at `t`, re-queried only when the
  /// cached window has lapsed.
  [[nodiscard]] const CoeffSample& bandwidth(std::uint32_t slot, SimTime t) {
    CoeffSample& s = pair_[slot];
    if (!(t < s.valid_until)) refreshPair(slot, t);
    return s;
  }

  /// Entries allocated to the pair-slot table's rows (capacity).
  [[nodiscard]] std::size_t pairSlotTableEntries() const;

 private:
  void refreshCore(std::uint32_t vm, SimTime t);
  void refreshPair(std::uint32_t slot, SimTime t);

  /// No query time falls inside this window: a new slot refreshes on
  /// first use.
  static constexpr CoeffSample kStale{
      0.0, -std::numeric_limits<SimTime>::infinity()};

  const MonitoringService* monitor_;
  std::vector<CoeffSample> core_;  ///< by VM id.
  // Pair slots are append-only across the run.
  std::vector<CoeffSample> pair_;
  std::vector<std::uint32_t> pair_a_;  ///< slot -> directional VM pair.
  std::vector<std::uint32_t> pair_b_;
  /// [producer VM id][consumer VM id] -> slot; unseen pairs hold a
  /// no-slot sentinel. sync() frees the rows of stopped producers.
  std::vector<std::vector<std::uint32_t>> pair_slot_of_;
  std::vector<std::uint32_t> pair_rows_;  ///< producers holding a row.
};

}  // namespace dds

// The cached structure-of-arrays fluid interval kernel (default engine of
// DataflowSimulator; see simulator.hpp for the dual-engine contract).
//
// Layout: the graph image (topology, edge CSR, alternate tables) is the
// shared immutable FluidGraphLayout; the ledger image (per-PE capacity
// entries, per-edge bandwidth-cap entries) lives in flat CSR arrays
// rebuilt only when CloudProvider::ledgerGeneration() changes; the
// monitoring coefficient caches (per-VM core power, per-directional-pair
// bandwidth) persist across rebuilds, each value tagged with the validity
// window its Sample query reported.
//
// Bit-identity with the reference kernel rests on window exactness: a
// cached sample equals a fresh query for any time inside its validity
// window (MonitoringService contract), so skipping the re-query cannot
// change a value. Trace assignment is a pure function of the VM (pair),
// so neither the order of queries nor the reference walk's discarded
// queries matter. Every reduction accumulates in the reference kernel's
// canonical sequence, so sums are bit-identical, not just close.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dds/cloud/cloud_provider.hpp"
#include "dds/common/time.hpp"
#include "dds/dataflow/dataflow.hpp"
#include "dds/metrics/run_metrics.hpp"
#include "dds/monitor/monitoring.hpp"
#include "dds/sim/deployment.hpp"
#include "dds/sim/fluid_layout.hpp"
#include "dds/sim/simulator.hpp"

namespace dds {

class FluidKernel {
 public:
  FluidKernel(const Dataflow& df, const CloudProvider& cloud,
              const MonitoringService& mon, const SimConfig& cfg,
              std::shared_ptr<const FluidGraphLayout> layout);

  /// Run one adaptation interval: fills `m` completely (per-PE stats,
  /// Omega, Gamma, cost, VM/core footprint) and advances the caller-owned
  /// queue state, matching the reference kernel byte for byte.
  void runInterval(SimTime t_start, SimTime dt, double input_rate,
                   const Deployment& deployment, IntervalMetrics& m,
                   std::vector<double>& backlog,
                   std::vector<double>& in_transit,
                   std::vector<SimTime>& pause_remaining,
                   std::vector<double>& output_rate,
                   std::vector<double>& expected_rate);

  /// Ledger-image rebuilds so far (== distinct ledger generations seen).
  [[nodiscard]] std::uint64_t rebuilds() const { return rebuilds_; }

 private:
  /// One cached monitoring sample; the sentinel window makes a fresh slot
  /// stale.
  struct Slot {
    double value = 0.0;
    SimTime valid_until = -std::numeric_limits<SimTime>::infinity();
  };

  void rebuild();
  [[nodiscard]] std::uint32_t pairSlot(std::uint32_t a, std::uint32_t b);
  void refreshPair(std::uint32_t slot, SimTime t_mid);
  void refreshPePower(std::uint32_t pe, SimTime t_mid);
  void refreshEdge(std::uint32_t e, std::uint32_t u, SimTime t_mid);

  const Dataflow* df_;
  const CloudProvider* cloud_;
  const MonitoringService* mon_;
  SimConfig cfg_;
  std::shared_ptr<const FluidGraphLayout> layout_;
  bool built_ = false;
  std::uint64_t generation_ = 0;
  std::uint64_t rebuilds_ = 0;

  // Coefficient caches: facts about the replayed traces, so they survive
  // ledger rebuilds. Pair slots are append-only across the run.
  std::vector<Slot> cpu_coeff_;  ///< by VM id.
  std::vector<Slot> pair_coeff_;
  std::vector<std::uint32_t> pair_a_;  ///< slot -> directional VM pair.
  std::vector<std::uint32_t> pair_b_;
  std::unordered_map<std::uint64_t, std::uint32_t> pair_slot_of_;

  // Ledger image (valid for one generation).
  std::vector<std::pair<PeId, int>> vm_pe_scratch_;
  std::vector<std::vector<VmCores>> pe_cores_;
  std::vector<std::uint32_t> cap_offset_;  ///< by pe id, size n+1.
  std::vector<std::uint32_t> cap_vm_;
  std::vector<double> cap_cores_;
  std::vector<int> pe_cores_total_;
  int total_cores_ = 0;

  // Per-edge bandwidth-cap entries (one per u-side VmCores of a runnable
  // edge), in the reference walk order. A remote entry's pair range holds
  // one slot per v-side VM; a colocated entry's range is empty.
  std::vector<std::uint32_t> entry_offset_;  ///< edge -> entries, E+1.
  std::vector<std::uint32_t> entry_vm_;
  std::vector<double> entry_cores_;
  std::vector<std::uint32_t> pair_offset_;  ///< entry -> pair slots.
  std::vector<std::uint32_t> pair_slots_;
  std::vector<std::uint8_t> edge_runnable_;  ///< both endpoints placed.

  // Aggregates, each tagged with the min validity window of the slots it
  // was reduced from.
  std::vector<double> pe_power_;
  std::vector<SimTime> pe_power_valid_;
  std::vector<double> edge_coloc_power_;
  std::vector<double> edge_remote_cap_;
  std::vector<SimTime> edge_valid_;
};

}  // namespace dds

// Fluid (rate-based) execution simulator for a deployed dynamic dataflow.
//
// SUBSTITUTION (see DESIGN.md): the paper evaluates its heuristics on an
// in-house IaaS simulator replaying real performance traces, not on a real
// deployment. We implement the equivalent: each adaptation interval is
// simulated in steady state —
//  * each PE processes up to capacity = sum over allocated cores of the
//    observed core power, divided by the active alternate's cost;
//  * unprocessed messages accumulate in a backlog queue and drain later
//    (local queue buffering, §5);
//  * inter-VM edges are capped by observed network bandwidth given the
//    ~100 KB message size (§8.1); colocated flows are in-memory and free;
//  * releasing a VM migrates its share of pending messages, which arrive
//    one interval later (network cost of migration, §5).
// The step() result carries Omega(t) (Def. 4), Gamma(t) (Def. 3) and the
// cumulative dollar cost, plus per-PE stats for the adaptation heuristics.
//
// Hot-path note: step() is the inner loop of every campaign run, so the
// interval kernel (src/sim/fluid_kernel.cpp) works on structure-of-arrays
// images. The graph image is the shared immutable FluidGraphLayout; the
// ledger image (per-PE capacity entries, per-edge bandwidth-cap entries)
// is rebuilt only when CloudProvider::ledgerGeneration() changes. Core
// power and pair bandwidth come through a CoeffCache (the windowed memo
// the event simulator shares), which persists across rebuilds and is
// synced at each; the ledger image stores each edge's pair slots, so the
// hot walk reads plain arrays. Per-PE power and per-edge caps are tagged
// with the min window of the samples they were reduced from. Every
// reduction accumulates in one canonical sequence (topological PE order,
// predecessor order, VM-id order).
//
// The test-only dds_oracle library holds the per-object walk this kernel
// memoizes (oracle::ReferenceFluidSimulator); golden traces and seeded
// identity runs hold the two bit-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "dds/cloud/cloud_provider.hpp"
#include "dds/common/time.hpp"
#include "dds/dataflow/dataflow.hpp"
#include "dds/metrics/run_metrics.hpp"
#include "dds/monitor/coeff_cache.hpp"
#include "dds/monitor/monitoring.hpp"
#include "dds/sim/deployment.hpp"

namespace dds {

struct FluidGraphLayout;

/// Simulation constants for one run, shared by both simulators
/// (EventSimConfig extends it).
struct SimConfig {
  double msg_size_bytes = 100.0e3;  ///< ~100 KB/msg (§8.1).
  SimTime interval_s = 60.0;        ///< adaptation interval length.

  /// Throws PreconditionError unless both fields are positive.
  void validate() const {
    DDS_REQUIRE(msg_size_bytes > 0.0, "message size must be positive");
    DDS_REQUIRE(interval_s > 0.0, "interval length must be positive");
  }

  /// Messages/s a link of `mbps` megabits/s can carry at this msg size.
  [[nodiscard]] double linkMsgsPerSec(double mbps) const {
    return mbps * 1.0e6 / (msg_size_bytes * 8.0);
  }
};

/// Stateful per-run simulator; owns the backlog queues and the kernel's
/// caches.
class DataflowSimulator {
 public:
  /// `layout` optionally shares a prebuilt immutable SoA graph image
  /// (Substrate hands the same one to every job on the same dataflow);
  /// when null the simulator builds its own.
  DataflowSimulator(const Dataflow& df, const CloudProvider& cloud,
                    const MonitoringService& mon, SimConfig cfg,
                    std::shared_ptr<const FluidGraphLayout> layout = nullptr);

  /// Simulate interval `index` with the given external input rate applied
  /// to every input PE, under the given deployment. Advances queue state.
  [[nodiscard]] IntervalMetrics step(IntervalIndex index, double input_rate,
                                     const Deployment& deployment);

  /// Messages queued at `pe` right now.
  [[nodiscard]] double backlog(PeId pe) const {
    DDS_REQUIRE(pe.value() < backlog_.size(), "PE id out of range");
    return backlog_[pe.value()];
  }

  /// Sum of all queued messages.
  [[nodiscard]] double totalBacklog() const;

  /// Move `fraction` of `pe`'s backlog into transit: those messages are
  /// unavailable this interval and arrive at the start of the next one.
  /// Called when the scheduler releases a VM hosting `pe` (§5).
  void migrateBacklog(PeId pe, double fraction);

  /// Permanently drop `fraction` of `pe`'s backlog (a VM crash took the
  /// buffered messages with it). Returns the number of messages lost.
  double dropBacklog(PeId pe, double fraction);

  /// Pause `pe`'s service for `seconds` (state migration downtime): the
  /// pause is consumed from the start of subsequent intervals, shrinking
  /// the capacity-seconds available to process messages. Pauses stack.
  void pauseService(PeId pe, SimTime seconds);

  /// Remaining unconsumed service pause of `pe`, seconds.
  [[nodiscard]] SimTime pauseRemaining(PeId pe) const {
    DDS_REQUIRE(pe.value() < pause_remaining_.size(), "PE id out of range");
    return pause_remaining_[pe.value()];
  }

  /// Ledger-image rebuilds so far (== distinct ledger generations seen).
  /// Feeds the `fluid.kernel_rebuilds` metric.
  [[nodiscard]] std::uint64_t kernelRebuilds() const { return rebuilds_; }

  /// CoeffCache::pairSlotTableEntries of the simulator's cache.
  [[nodiscard]] std::size_t pairSlotTableEntries() const {
    return coeff_.pairSlotTableEntries();
  }

  /// Wall-clock seconds spent inside step() so far. Feeds the
  /// `fluid.intervals_per_s` gauge.
  [[nodiscard]] double wallSeconds() const { return wall_seconds_; }

 private:
  void runInterval(SimTime t_start, double input_rate,
                   const Deployment& deployment, IntervalMetrics& m);
  void rebuild();
  void refreshPePower(std::uint32_t pe, SimTime t_mid);
  void refreshEdge(std::uint32_t e, std::uint32_t u, SimTime t_mid);

  const Dataflow* df_;
  const CloudProvider* cloud_;
  SimConfig cfg_;
  std::shared_ptr<const FluidGraphLayout> layout_;
  double wall_seconds_ = 0.0;

  // Queue state.
  std::vector<double> backlog_;     ///< msgs queued per PE.
  std::vector<double> in_transit_;  ///< msgs arriving next interval per PE.
  std::vector<SimTime> pause_remaining_;  ///< migration downtime per PE.
  std::vector<double> output_rate_;
  std::vector<double> expected_rate_;

  bool built_ = false;
  std::uint64_t generation_ = 0;
  std::uint64_t rebuilds_ = 0;

  // Coefficient cache: facts about the replayed traces, so it survives
  // ledger rebuilds; each rebuild syncs it with the ledger.
  CoeffCache coeff_;

  // Ledger image (valid for one generation).
  std::vector<std::pair<PeId, int>> vm_pe_scratch_;
  std::vector<std::vector<VmCores>> pe_cores_;
  std::vector<std::uint32_t> cap_offset_;  ///< by pe id, size n+1.
  std::vector<std::uint32_t> cap_vm_;
  std::vector<double> cap_cores_;
  std::vector<int> pe_cores_total_;
  int total_cores_ = 0;

  // Per-edge bandwidth-cap entries (one per u-side VmCores of a runnable
  // edge), in the canonical walk order. A remote entry's pair range holds
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

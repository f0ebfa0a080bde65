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
// Hot-path note: step() is the inner loop of every campaign run. Two
// interval kernels implement the identical arithmetic (SimConfig::Engine,
// mirroring the event simulator's dual-engine design):
//  * Cached (default) — the structure-of-arrays FluidKernel: the ledger
//    image, per-edge bandwidth-cap entries and coefficient caches live in
//    flat arrays rebuilt only when the cloud's allocation-ledger
//    generation changes, and monitoring queries are skipped whenever a
//    cached sample's validity window still covers the interval midpoint.
//  * Reference — the original per-object walk below: the ledger is
//    snapshotted every interval and pi/beta lookups are memoized per
//    interval. It is the bit-identity oracle for the cached kernel
//    (golden fixtures + fuzzing gate the pair).
// Both kernels accumulate every reduction in the same canonical sequence.
// Monitoring queries are pure (trace assignment is a function of the VM or
// pair, not of query history), so the kernels may query in any order and
// as often as they like.
#pragma once

#include <cstdint>
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

namespace dds {

struct FluidGraphLayout;
class FluidKernel;

/// Simulation constants for one run.
struct SimConfig {
  /// Which interval kernel to run (see the header comment). Cached is the
  /// SoA kernel; Reference is the retained per-object oracle.
  enum class Engine { Cached, Reference };

  double msg_size_bytes = 100.0e3;  ///< ~100 KB/msg (§8.1).
  SimTime interval_s = 60.0;        ///< adaptation interval length.
  Engine engine = Engine::Cached;

  /// Messages/s a link of `mbps` megabits/s can carry at this msg size.
  [[nodiscard]] double linkMsgsPerSec(double mbps) const {
    return mbps * 1.0e6 / (msg_size_bytes * 8.0);
  }
};

/// Stateful per-run simulator; owns the backlog queues.
class DataflowSimulator {
 public:
  /// `layout` optionally shares a prebuilt immutable SoA graph image
  /// (Substrate hands the same one to every job on the same dataflow);
  /// when null the cached engine builds its own.
  DataflowSimulator(const Dataflow& df, const CloudProvider& cloud,
                    const MonitoringService& mon, SimConfig cfg,
                    std::shared_ptr<const FluidGraphLayout> layout = nullptr);
  ~DataflowSimulator();

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

  /// How many times the interval kernel rebuilt its ledger image: the
  /// cached engine rebuilds only on allocation-ledger generation changes,
  /// the reference engine snapshots once per interval. Feeds the
  /// `fluid.kernel_rebuilds` metric.
  [[nodiscard]] std::uint64_t kernelRebuilds() const;

 private:
  /// Refresh the per-PE core lists from the cloud ledger (one pass) and
  /// invalidate the per-interval monitoring memos.
  void beginInterval(SimTime t_mid);

  /// Memoized MonitoringService::observedCorePower at the interval
  /// midpoint.
  [[nodiscard]] double corePowerAt(VmId vm);

  /// Memoized MonitoringService::observedBandwidthMbps at the interval
  /// midpoint (directional key, matching the unmemoized call pattern).
  [[nodiscard]] double bandwidthAt(VmId a, VmId b);

  /// Deliverable msgs/s on edge (u -> v) given this interval's snapshot.
  [[nodiscard]] double deliverableRate(double flow_rate, PeId u, PeId v);

  const Dataflow* df_;
  const CloudProvider* cloud_;
  const MonitoringService* mon_;
  SimConfig cfg_;
  std::shared_ptr<const FluidGraphLayout> layout_;
  std::unique_ptr<FluidKernel> kernel_;  ///< null on the reference engine.
  std::uint64_t reference_snapshots_ = 0;
  std::vector<double> backlog_;     ///< msgs queued per PE.
  std::vector<double> in_transit_;  ///< msgs arriving next interval per PE.
  std::vector<SimTime> pause_remaining_;  ///< migration downtime per PE.

  // Per-interval working state, reused across step() calls.
  SimTime t_mid_ = 0.0;
  std::vector<std::vector<VmCores>> pe_cores_;  ///< ledger snapshot per PE.
  std::vector<double> cpu_power_memo_;  ///< per-VM pi; NaN = not queried.
  std::unordered_map<std::uint64_t, double> bandwidth_memo_;
  std::vector<double> output_rate_;
  std::vector<double> expected_rate_;
  std::vector<std::pair<PeId, int>> vm_pe_scratch_;  ///< per-VM PE counts.
};

}  // namespace dds

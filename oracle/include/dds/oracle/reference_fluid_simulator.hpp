// Reference fluid simulator: the per-object interval walk the cached
// DataflowSimulator memoizes.
//
// Every step() snapshots the allocation ledger into per-PE core lists and
// memoizes core-power and bandwidth queries for that interval only, then
// walks the PEs in topological order exactly as DataflowSimulator's
// header describes the model. It keeps its own queue state and the three
// seam calls (migrateBacklog, dropBacklog, pauseService), with the same
// member names as DataflowSimulator, so SimulationEngine's interval loop,
// the stepping tests and the benches can run either type unchanged.
//
// It exists only as a bit-identity oracle: tests and benches link it,
// the product does not.
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
#include "dds/sim/simulator.hpp"

namespace dds {
struct FluidGraphLayout;
}

namespace dds::oracle {

class ReferenceFluidSimulator {
 public:
  /// The layout argument mirrors DataflowSimulator's constructor; the
  /// per-object walk reads the Dataflow directly and ignores it.
  ReferenceFluidSimulator(const Dataflow& df, const CloudProvider& cloud,
                          const MonitoringService& mon, SimConfig cfg,
                          std::shared_ptr<const FluidGraphLayout> layout =
                              nullptr);

  [[nodiscard]] IntervalMetrics step(IntervalIndex index, double input_rate,
                                     const Deployment& deployment);

  [[nodiscard]] double backlog(PeId pe) const {
    DDS_REQUIRE(pe.value() < backlog_.size(), "PE id out of range");
    return backlog_[pe.value()];
  }
  [[nodiscard]] double totalBacklog() const;
  void migrateBacklog(PeId pe, double fraction);
  double dropBacklog(PeId pe, double fraction);
  void pauseService(PeId pe, SimTime seconds);
  [[nodiscard]] SimTime pauseRemaining(PeId pe) const {
    DDS_REQUIRE(pe.value() < pause_remaining_.size(), "PE id out of range");
    return pause_remaining_[pe.value()];
  }

  /// Ledger snapshots taken so far: one per interval.
  [[nodiscard]] std::uint64_t kernelRebuilds() const { return snapshots_; }

  /// Wall-clock seconds spent inside step() so far.
  [[nodiscard]] double wallSeconds() const { return wall_seconds_; }

 private:
  /// Refresh the per-PE core lists from the cloud ledger (one pass) and
  /// invalidate the per-interval monitoring memos.
  void beginInterval(SimTime t_mid);

  /// Memoized MonitoringService::observedCorePower at the interval
  /// midpoint.
  [[nodiscard]] double corePowerAt(VmId vm);

  /// Memoized MonitoringService::observedBandwidthMbps at the interval
  /// midpoint (directional key).
  [[nodiscard]] double bandwidthAt(VmId a, VmId b);

  /// Deliverable msgs/s on edge (u -> v) given this interval's snapshot.
  [[nodiscard]] double deliverableRate(double flow_rate, PeId u, PeId v);

  [[nodiscard]] IntervalMetrics walk(IntervalIndex index, double input_rate,
                                     const Deployment& deployment);

  const Dataflow* df_;
  const CloudProvider* cloud_;
  const MonitoringService* mon_;
  SimConfig cfg_;
  std::uint64_t snapshots_ = 0;
  double wall_seconds_ = 0.0;
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

}  // namespace dds::oracle

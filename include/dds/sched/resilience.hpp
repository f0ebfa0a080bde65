// Scheduler resilience layer against cloud turbulence (paper §9 future
// work; see dds/faults/fault_plan.hpp for the fault model it answers).
//
// Three mechanisms, all policy-level — they consume only the monitoring
// interface and AcquisitionResult, never the fault plan itself:
//  * bounded retry with class fallback + exponential backoff on failed
//    acquisitions (ResourceAllocator consumes these knobs);
//  * straggler detection and quarantine: StragglerGuard blacklists VMs
//    whose smoothed observed/rated power ratio stays below a threshold
//    for k consecutive probes, so the scheduler can evacuate and replace
//    them instead of planning against capacity that never materializes;
//  * graceful degradation: while replacement capacity is provisioning
//    (or acquisitions are backing off), the heuristic scheduler downgrades
//    alternates off-cadence to restore Omega >= Omega-hat with the
//    capacity it actually has (HeuristicScheduler consumes this flag).
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dds/cloud/cloud_provider.hpp"
#include "dds/common/ids.hpp"
#include "dds/common/time.hpp"
#include "dds/monitor/monitoring.hpp"
#include "dds/obs/trace_sink.hpp"

namespace dds {

/// Scheduler-side responses to cloud turbulence, shared by the heuristic
/// scheduler and its allocator. Quarantine threshold 0 disables the
/// straggler guard.
struct ResilienceConfig {
  /// Quarantine a VM when its smoothed observed/rated power ratio stays
  /// below this for `quarantine_probes` consecutive probes; 0 disables.
  double quarantine_threshold = 0.0;
  int quarantine_probes = 3;
  /// Acquisition attempts per need (the first on the policy-preferred
  /// class, the rest falling back through cheaper classes).
  int acquisition_max_retries = 3;
  /// Base backoff after an acquisition need goes unmet; doubles per
  /// consecutive unmet need, capped at 8x. 0 disables backing off.
  double acquisition_backoff_s = 60.0;
  /// Downgrade alternates off-cadence while capacity is pending.
  bool graceful_degradation = false;

  [[nodiscard]] bool quarantineEnabled() const {
    return quarantine_threshold > 0.0;
  }

  /// Append one message per invalid field to `errors` (never throws).
  void appendErrors(std::vector<std::string>& errors) const;

  bool operator==(const ResilienceConfig&) const = default;
};

/// EWMA weight of the newest probe in StragglerGuard's ratio estimate.
inline constexpr double kStragglerAlpha = 0.5;

/// Detects persistent stragglers from periodic monitoring probes.
///
/// Per active, ready VM the guard tracks an EWMA of the observed/rated
/// core-power ratio; a VM whose smoothed ratio sits below the threshold
/// for k consecutive probes joins the blacklist. Provisioning VMs are
/// skipped (zero observed power means "not online yet", not "slow"), as
/// are already blacklisted ones.
class StragglerGuard {
 public:
  StragglerGuard(const CloudProvider& cloud, const MonitoringService& monitor,
                 ResilienceConfig options);

  /// Attach the run's tracer; probe() then emits StragglerRecovery when a
  /// suspected VM's smoothed ratio climbs back above the threshold before
  /// it crossed the quarantine bar. (Quarantine itself is emitted by the
  /// scheduler, which knows how many cores the evacuation moved.)
  void setTracer(obs::Tracer tracer) { tracer_ = tracer; }

  /// One probe round over all active VMs at time `t`; returns the VMs
  /// that crossed the quarantine bar this round (already blacklisted VMs
  /// are never reported again).
  std::vector<VmId> probe(SimTime t);

  /// Current smoothed observed/rated power ratio of `vm`; 1 when the
  /// guard has not probed it yet.
  [[nodiscard]] double smoothedRatio(VmId vm) const {
    const auto it = tracks_.find(vm);
    return it != tracks_.end() ? it->second.smoothed_ratio : 1.0;
  }

  [[nodiscard]] bool isQuarantined(VmId vm) const {
    return blacklist_.contains(vm);
  }

  [[nodiscard]] const std::unordered_set<VmId>& blacklist() const {
    return blacklist_;
  }

  /// Total VMs ever quarantined by this guard.
  [[nodiscard]] int quarantineCount() const {
    return static_cast<int>(blacklist_.size());
  }

 private:
  struct Track {
    double smoothed_ratio = 1.0;
    int consecutive_low = 0;
  };

  const CloudProvider* cloud_;
  const MonitoringService* monitor_;
  ResilienceConfig options_;
  obs::Tracer tracer_;
  std::unordered_map<VmId, Track> tracks_;
  std::unordered_set<VmId> blacklist_;
};

}  // namespace dds

// Probe history with exponential smoothing.
//
// The §4 monitoring framework probes "periodically and noninvasively".
// Reacting to each raw probe makes the scheduler chase trace noise —
// acquiring an hour-billed VM because one probe dipped. ProbeHistory
// accumulates the periodic probes and exposes an EWMA estimate of each
// VM's core power:
//
//   smoothed(t_k) = alpha * observed(t_k) + (1 - alpha) * smoothed(t_{k-1})
//
// alpha = 1 reproduces the raw instantaneous behaviour; smaller alphas
// trade reactivity for stability (see bench_ablation_design_choices).
// The engine calls probe() once per adaptation interval and hands the
// history to the schedulers when ExperimentConfig::power_smoothing_alpha
// is below 1 (SchedulerEnv::probes).
#pragma once

#include <unordered_map>

#include "dds/monitor/monitoring.hpp"

namespace dds {

/// Sequential probe accumulator over one run.
class ProbeHistory {
 public:
  /// @param alpha EWMA weight of the newest probe, in (0, 1].
  ProbeHistory(const MonitoringService& monitor, double alpha);

  /// Record one probe round over all active VMs at time `t`. Times must be
  /// non-decreasing across calls. A VM first seen at this probe starts its
  /// EWMA from the raw observation.
  void probe(SimTime t);

  /// Smoothed core power of `vm`; a VM never probed falls back to the
  /// rated spec (the deployment-time assumption).
  [[nodiscard]] double smoothedCorePower(VmId vm) const;

  /// Number of probe rounds so far.
  [[nodiscard]] std::size_t probeCount() const { return probes_; }

  [[nodiscard]] double alpha() const { return alpha_; }

 private:
  const MonitoringService* monitor_;
  double alpha_;
  SimTime last_probe_ = -1.0;
  std::size_t probes_ = 0;
  std::unordered_map<VmId, double> smoothed_;
};

}  // namespace dds

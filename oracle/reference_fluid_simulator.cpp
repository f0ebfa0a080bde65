#include "dds/oracle/reference_fluid_simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "dds/sim/rate_model.hpp"

namespace dds::oracle {
namespace {

constexpr double kUnqueried = std::numeric_limits<double>::quiet_NaN();

std::uint64_t directionalPairKey(VmId a, VmId b) {
  return (static_cast<std::uint64_t>(a.value()) << 32) |
         static_cast<std::uint64_t>(b.value());
}

}  // namespace

ReferenceFluidSimulator::ReferenceFluidSimulator(
    const Dataflow& df, const CloudProvider& cloud,
    const MonitoringService& mon, SimConfig cfg,
    std::shared_ptr<const FluidGraphLayout> /*layout*/)
    : df_(&df),
      cloud_(&cloud),
      mon_(&mon),
      cfg_(cfg),
      backlog_(df.peCount(), 0.0),
      in_transit_(df.peCount(), 0.0),
      pause_remaining_(df.peCount(), 0.0),
      pe_cores_(df.peCount()),
      output_rate_(df.peCount(), 0.0) {
  cfg_.validate();
}

double ReferenceFluidSimulator::totalBacklog() const {
  double total = 0.0;
  for (double b : backlog_) total += b;
  return total;
}

void ReferenceFluidSimulator::migrateBacklog(PeId pe, double fraction) {
  DDS_REQUIRE(pe.value() < backlog_.size(), "PE id out of range");
  DDS_REQUIRE(fraction >= 0.0 && fraction <= 1.0,
              "migration fraction out of range");
  const double moved = backlog_[pe.value()] * fraction;
  backlog_[pe.value()] -= moved;
  in_transit_[pe.value()] += moved;
}

double ReferenceFluidSimulator::dropBacklog(PeId pe, double fraction) {
  DDS_REQUIRE(pe.value() < backlog_.size(), "PE id out of range");
  DDS_REQUIRE(fraction >= 0.0 && fraction <= 1.0,
              "drop fraction out of range");
  const double dropped = backlog_[pe.value()] * fraction;
  backlog_[pe.value()] -= dropped;
  return dropped;
}

void ReferenceFluidSimulator::pauseService(PeId pe, SimTime seconds) {
  DDS_REQUIRE(pe.value() < pause_remaining_.size(), "PE id out of range");
  DDS_REQUIRE(seconds >= 0.0, "pause must be non-negative");
  pause_remaining_[pe.value()] += seconds;
}

void ReferenceFluidSimulator::beginInterval(SimTime t_mid) {
  t_mid_ = t_mid;
  ++snapshots_;
  for (auto& cores : pe_cores_) cores.clear();
  // One pass over the ledger replaces the per-edge-endpoint scans of the
  // naive formulation: O(total cores) instead of O(edges x VMs x cores).
  // Each (PE, VM) pair must yield exactly one VmCores entry, in VM-id
  // order, to match peCores() — a fragmented VM split into two entries
  // would double-count the remote bandwidth cap in deliverableRate().
  for (const VmId id : cloud_->activeIds()) {
    const VmInstance& vm = cloud_->instance(id);
    vm_pe_scratch_.clear();
    for (int core = 0; core < vm.coreCount(); ++core) {
      const std::optional<PeId> owner = vm.coreOwner(core);
      if (!owner.has_value()) continue;
      bool found = false;
      for (auto& [pe, count] : vm_pe_scratch_) {
        if (pe == *owner) {
          ++count;
          found = true;
          break;
        }
      }
      if (!found) vm_pe_scratch_.emplace_back(*owner, 1);
    }
    for (const auto& [pe, count] : vm_pe_scratch_) {
      pe_cores_[pe.value()].push_back({id, count});
    }
  }
  cpu_power_memo_.assign(cloud_->instanceCount(), kUnqueried);
  bandwidth_memo_.clear();
}

double ReferenceFluidSimulator::corePowerAt(VmId vm) {
  double& memo = cpu_power_memo_[vm.value()];
  if (std::isnan(memo)) memo = mon_->observedCorePower(vm, t_mid_);
  return memo;
}

double ReferenceFluidSimulator::bandwidthAt(VmId a, VmId b) {
  const std::uint64_t key = directionalPairKey(a, b);
  const auto it = bandwidth_memo_.find(key);
  if (it != bandwidth_memo_.end()) return it->second;
  const double mbps = mon_->observedBandwidthMbps(a, b, t_mid_);
  bandwidth_memo_.emplace(key, mbps);
  return mbps;
}

/// How much of edge (u -> v)'s flow can actually be delivered per second.
/// The fraction of u's processing power on VMs that also host v moves
/// in-memory (uncapped); the rest crosses the network and is capped by the
/// observed bandwidth from each of u's VMs to the nearest of v's VMs.
double ReferenceFluidSimulator::deliverableRate(double flow_rate, PeId u,
                                                PeId v) {
  if (flow_rate <= 0.0) return 0.0;
  const auto& u_cores = pe_cores_[u.value()];
  const auto& v_cores = pe_cores_[v.value()];
  if (u_cores.empty() || v_cores.empty()) {
    // An unplaced endpoint cannot move data; deliver nothing.
    return 0.0;
  }

  double total_power = 0.0;
  double colocated_power = 0.0;
  double remote_cap_msgs = 0.0;
  for (const auto& uc : u_cores) {
    const double p = static_cast<double>(uc.cores) * corePowerAt(uc.vm);
    total_power += p;
    bool colocated = false;
    double best_mbps = 0.0;
    for (const auto& vc : v_cores) {
      if (vc.vm == uc.vm) {
        colocated = true;
        break;
      }
      best_mbps = std::max(best_mbps, bandwidthAt(uc.vm, vc.vm));
    }
    if (colocated) {
      colocated_power += p;
    } else {
      remote_cap_msgs += cfg_.linkMsgsPerSec(best_mbps);
    }
  }
  if (total_power <= 0.0) return flow_rate;  // degenerate: treat as local
  const double colocated_fraction = colocated_power / total_power;
  const double local_part = flow_rate * colocated_fraction;
  const double remote_part = flow_rate - local_part;
  return local_part + std::min(remote_part, remote_cap_msgs);
}

IntervalMetrics ReferenceFluidSimulator::step(IntervalIndex index,
                                              double input_rate,
                                              const Deployment& deployment) {
  const auto wall_start = std::chrono::steady_clock::now();
  IntervalMetrics m = walk(index, input_rate, deployment);
  wall_seconds_ += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return m;
}

IntervalMetrics ReferenceFluidSimulator::walk(IntervalIndex index,
                                              double input_rate,
                                              const Deployment& deployment) {
  DDS_REQUIRE(input_rate >= 0.0, "input rate must be non-negative");
  DDS_REQUIRE(deployment.peCount() == df_->peCount(),
              "deployment does not match dataflow");
  const SimTime dt = cfg_.interval_s;
  const SimTime t_start = static_cast<SimTime>(index) * dt;
  const std::size_t n = df_->peCount();

  IntervalMetrics m;
  m.index = index;
  m.start = t_start;
  m.input_rate = input_rate;
  m.pe_stats.resize(n);

  beginInterval(t_start + 0.5 * dt);
  std::fill(output_rate_.begin(), output_rate_.end(), 0.0);
  for (const PeId pe : df_->topologicalOrder()) {
    const std::size_t i = pe.value();
    PeIntervalStats& st = m.pe_stats[i];

    // Arrivals: external feed for inputs, bandwidth-capped upstream flows
    // otherwise (multi-merge interleaves all incoming edges).
    double arrival = 0.0;
    if (df_->isInput(pe)) {
      arrival = input_rate;
    } else {
      for (const PeId u : df_->predecessors(pe)) {
        arrival += deliverableRate(output_rate_[u.value()], u, pe);
      }
    }
    st.arrival_rate = arrival;

    // Queue dynamics: this interval's work is new arrivals plus queued
    // backlog plus any migrated messages that completed their transfer.
    const double available_msgs =
        arrival * dt + backlog_[i] + in_transit_[i];
    in_transit_[i] = 0.0;
    st.offered_rate = available_msgs / dt;

    const auto& alt = df_->pe(pe).alternate(deployment.activeAlternate(pe));
    double power = 0.0;
    int cores = 0;
    for (const auto& vc : pe_cores_[i]) {
      power += static_cast<double>(vc.cores) * corePowerAt(vc.vm);
      cores += vc.cores;
    }
    const double capacity_rate = power / alt.cost_core_sec;
    st.capacity_rate = capacity_rate;
    st.allocated_cores = cores;

    // Migration downtime consumes service time from the front of the
    // interval. The guarded path keeps the no-pause arithmetic untouched.
    SimTime service_dt = dt;
    if (pause_remaining_[i] > 0.0) {
      const SimTime pause = std::min(pause_remaining_[i], dt);
      pause_remaining_[i] -= pause;
      service_dt = dt - pause;
    }
    const double processed_msgs =
        std::min(available_msgs, capacity_rate * service_dt);
    backlog_[i] = available_msgs - processed_msgs;
    st.processed_rate = processed_msgs / dt;
    st.backlog_msgs = backlog_[i];
    st.relative_throughput =
        available_msgs > 0.0 ? processed_msgs / available_msgs : 1.0;

    output_rate_[i] = processed_msgs * alt.selectivity / dt;
    st.output_rate = output_rate_[i];
  }

  // Omega(t), Def. 4: mean over output PEs of observed / expected output
  // rate, where "expected" assumes infinite capacity at the current input
  // rate and alternates. Clamped to (0, 1].
  expectedOutputRatesInto(*df_, deployment, input_rate, expected_rate_);
  double omega_sum = 0.0;
  for (const PeId o : df_->outputs()) {
    const double exp_rate = expected_rate_[o.value()];
    const double ratio =
        exp_rate > 0.0 ? output_rate_[o.value()] / exp_rate : 1.0;
    omega_sum += std::clamp(ratio, 0.0, 1.0);
  }
  m.omega = omega_sum / static_cast<double>(df_->outputs().size());

  // Gamma(t), Def. 3: mean relative value of the active alternates.
  double gamma_sum = 0.0;
  for (const auto& pe : df_->pes()) {
    gamma_sum += pe.relativeValue(deployment.activeAlternate(pe.id()));
  }
  m.gamma = gamma_sum / static_cast<double>(n);

  m.cost_cumulative = cloud_->accumulatedCost(t_start + dt);
  m.active_vms = static_cast<int>(cloud_->activeIds().size());
  int total_cores = 0;
  for (const auto& cores : pe_cores_) {
    for (const auto& vc : cores) total_cores += vc.cores;
  }
  m.allocated_cores = total_cores;
  return m;
}

}  // namespace dds::oracle

// DataflowSimulator's interval kernel: the ledger-image rebuild, the
// windowed coefficient refreshes and the per-interval walk over the
// structure-of-arrays images (see simulator.hpp).
#include <algorithm>
#include <limits>

#include "dds/sim/fluid_layout.hpp"
#include "dds/sim/simulator.hpp"

namespace dds {
namespace {

constexpr SimTime kNeverValid = -std::numeric_limits<SimTime>::infinity();

}  // namespace

void DataflowSimulator::rebuild() {
  built_ = true;
  generation_ = cloud_->ledgerGeneration();
  ++rebuilds_;
  const FluidGraphLayout& L = *layout_;
  const std::size_t n = L.pe_count;

  // One pass over the ledger: exactly one VmCores entry per (PE, VM)
  // pair, in VM-id order (a VM split into two entries would double-count
  // the remote bandwidth cap).
  for (auto& cores : pe_cores_) cores.clear();
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
      pe_cores_[pe.value()].push_back({vm.id(), count});
    }
  }
  coeff_.sync(*cloud_);

  cap_offset_.assign(n + 1, 0);
  cap_vm_.clear();
  cap_cores_.clear();
  pe_cores_total_.assign(n, 0);
  total_cores_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    int cores = 0;
    for (const VmCores& vc : pe_cores_[i]) {
      cap_vm_.push_back(vc.vm.value());
      cap_cores_.push_back(static_cast<double>(vc.cores));
      cores += vc.cores;
    }
    pe_cores_total_[i] = cores;
    total_cores_ += cores;
    cap_offset_[i + 1] = static_cast<std::uint32_t>(cap_vm_.size());
  }
  pe_power_.assign(n, 0.0);
  pe_power_valid_.assign(n, kNeverValid);

  const std::size_t ecount = L.edgeCount();
  entry_offset_.assign(1, 0);
  entry_vm_.clear();
  entry_cores_.clear();
  pair_offset_.assign(1, 0);
  pair_slots_.clear();
  edge_runnable_.assign(ecount, 0);
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::uint32_t v = L.topo[pos];
    const auto& v_cores = pe_cores_[v];
    const std::uint32_t e_end = L.edge_offset[pos + 1];
    for (std::uint32_t e = L.edge_offset[pos]; e < e_end; ++e) {
      const std::uint32_t u = L.edge_u[e];
      const auto& u_cores = pe_cores_[u];
      if (!u_cores.empty() && !v_cores.empty()) {
        edge_runnable_[e] = 1;
        for (const VmCores& uc : u_cores) {
          entry_vm_.push_back(uc.vm.value());
          entry_cores_.push_back(static_cast<double>(uc.cores));
          const bool colocated =
              std::any_of(v_cores.begin(), v_cores.end(),
                          [&](const VmCores& vc) { return vc.vm == uc.vm; });
          if (!colocated) {
            for (const VmCores& vc : v_cores) {
              pair_slots_.push_back(
                  coeff_.pairSlot(uc.vm.value(), vc.vm.value()));
            }
          }
          pair_offset_.push_back(
              static_cast<std::uint32_t>(pair_slots_.size()));
        }
      }
      entry_offset_.push_back(static_cast<std::uint32_t>(entry_vm_.size()));
    }
  }
  edge_coloc_power_.assign(ecount, 0.0);
  edge_remote_cap_.assign(ecount, 0.0);
  edge_valid_.assign(ecount, kNeverValid);
}

void DataflowSimulator::refreshPePower(std::uint32_t pe, SimTime t_mid) {
  double power = 0.0;
  SimTime valid = std::numeric_limits<SimTime>::infinity();
  const std::uint32_t end = cap_offset_[pe + 1];
  for (std::uint32_t k = cap_offset_[pe]; k < end; ++k) {
    const CoeffSample& s = coeff_.corePower(cap_vm_[k], t_mid);
    power += cap_cores_[k] * s.value;
    valid = std::min(valid, s.valid_until);
  }
  pe_power_[pe] = power;
  pe_power_valid_[pe] = valid;
}

void DataflowSimulator::refreshEdge(std::uint32_t e, std::uint32_t u,
                                    SimTime t_mid) {
  // Precondition: u precedes this edge's head in topological order, so
  // u's capacity phase already refreshed every core-power slot below for
  // this t_mid — reading .value without a staleness check is exact, and
  // matches the per-object walk's per-interval memo hit.
  double coloc = 0.0;
  double remote = 0.0;
  SimTime valid = pe_power_valid_[u];
  const std::uint32_t k_end = entry_offset_[e + 1];
  for (std::uint32_t k = entry_offset_[e]; k < k_end; ++k) {
    const std::uint32_t q_begin = pair_offset_[k];
    const std::uint32_t q_end = pair_offset_[k + 1];
    if (q_begin == q_end) {  // colocated: no pairs, in-memory transfer
      coloc += entry_cores_[k] * coeff_.cachedCorePower(entry_vm_[k]);
    } else {
      double best_mbps = 0.0;
      for (std::uint32_t q = q_begin; q < q_end; ++q) {
        const CoeffSample& bw = coeff_.bandwidth(pair_slots_[q], t_mid);
        best_mbps = std::max(best_mbps, bw.value);
        valid = std::min(valid, bw.valid_until);
      }
      remote += cfg_.linkMsgsPerSec(best_mbps);
    }
  }
  edge_coloc_power_[e] = coloc;
  edge_remote_cap_[e] = remote;
  edge_valid_[e] = valid;
}

void DataflowSimulator::runInterval(SimTime t_start, double input_rate,
                                    const Deployment& deployment,
                                    IntervalMetrics& m) {
  if (!built_ || cloud_->ledgerGeneration() != generation_) rebuild();
  const FluidGraphLayout& L = *layout_;
  const SimTime dt = cfg_.interval_s;
  const SimTime t_mid = t_start + 0.5 * dt;
  const std::size_t n = L.pe_count;

  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::uint32_t i = L.topo[pos];
    PeIntervalStats& st = m.pe_stats[i];

    double arrival = 0.0;
    if (L.is_input[i] != 0) {
      arrival = input_rate;
    } else {
      const std::uint32_t e_end = L.edge_offset[pos + 1];
      for (std::uint32_t e = L.edge_offset[pos]; e < e_end; ++e) {
        const std::uint32_t u = L.edge_u[e];
        const double flow = output_rate_[u];
        // No flow or an unplaced endpoint delivers nothing and skips
        // every query.
        if (flow <= 0.0 || edge_runnable_[e] == 0) continue;
        if (!(t_mid < edge_valid_[e])) refreshEdge(e, u, t_mid);
        const double total_power = pe_power_[u];
        if (total_power <= 0.0) {  // degenerate: treat as local
          arrival += flow;
          continue;
        }
        const double local_part =
            flow * (edge_coloc_power_[e] / total_power);
        const double remote_part = flow - local_part;
        arrival += local_part + std::min(remote_part, edge_remote_cap_[e]);
      }
    }
    st.arrival_rate = arrival;

    const double available_msgs = arrival * dt + backlog_[i] + in_transit_[i];
    in_transit_[i] = 0.0;
    st.offered_rate = available_msgs / dt;

    if (!(t_mid < pe_power_valid_[i])) refreshPePower(i, t_mid);
    const std::uint32_t alt =
        L.alt_offset[i] +
        deployment.activeAlternate(PeId(i)).value();
    const double capacity_rate = pe_power_[i] / L.alt_cost_core_sec[alt];
    st.capacity_rate = capacity_rate;
    st.allocated_cores = pe_cores_total_[i];

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

    output_rate_[i] = processed_msgs * L.alt_selectivity[alt] / dt;
    st.output_rate = output_rate_[i];
  }

  // Omega(t): flat mirror of expectedOutputRatesInto() — the arrival walk
  // in topological order, then the own-selectivity multiply in pe-id
  // order — with the same operand sequence.
  expected_rate_.assign(n, 0.0);
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::uint32_t v = L.topo[pos];
    if (L.is_input[v] != 0) {
      expected_rate_[v] = input_rate;
    } else {
      double sum = 0.0;
      const std::uint32_t e_end = L.edge_offset[pos + 1];
      for (std::uint32_t e = L.edge_offset[pos]; e < e_end; ++e) {
        const std::uint32_t u = L.edge_u[e];
        const std::uint32_t ua =
            L.alt_offset[u] + deployment.activeAlternate(PeId(u)).value();
        sum += expected_rate_[u] * L.alt_selectivity[ua];
      }
      expected_rate_[v] = sum;
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t a =
        L.alt_offset[i] + deployment.activeAlternate(PeId(i)).value();
    expected_rate_[i] *= L.alt_selectivity[a];
  }
  double omega_sum = 0.0;
  for (const std::uint32_t o : L.outputs) {
    const double exp_rate = expected_rate_[o];
    const double ratio = exp_rate > 0.0 ? output_rate_[o] / exp_rate : 1.0;
    omega_sum += std::clamp(ratio, 0.0, 1.0);
  }
  m.omega = omega_sum / static_cast<double>(L.outputs.size());

  // Gamma(t): precomputed relative values, pe-id order.
  double gamma_sum = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    gamma_sum += L.alt_relative_value[
        L.alt_offset[i] + deployment.activeAlternate(PeId(i)).value()];
  }
  m.gamma = gamma_sum / static_cast<double>(n);

  m.cost_cumulative = cloud_->accumulatedCost(t_start + dt);
  m.active_vms = static_cast<int>(cloud_->activeIds().size());
  m.allocated_cores = total_cores_;
}

}  // namespace dds

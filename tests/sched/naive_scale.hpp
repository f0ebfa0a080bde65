// Reference copy of the allocator's scale-out / scale-in greedy in its
// full-recompute form: every greedy step rebuilds the per-PE power vector
// from the whole ledger, re-projects through projectThroughput(), and
// rescans every VM ever acquired. ResourceAllocator keeps per-call host
// tables instead; ScaleLoopEquivalence runs both on identical clouds and
// requires the same ledger, migrations and acquisitions. Test-only: it is
// never linked into the library.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "dds/cloud/cloud_provider.hpp"
#include "dds/common/rng.hpp"
#include "dds/dataflow/dataflow.hpp"
#include "dds/sched/allocation.hpp"
#include "dds/sim/rate_model.hpp"

namespace dds::testing {

class NaiveScaleAllocator {
 public:
  using AcquisitionPolicy = ResourceAllocator::AcquisitionPolicy;

  NaiveScaleAllocator(const Dataflow& df, CloudProvider& cloud,
                      double omega_target, AcquisitionPolicy acquisition)
      : df_(&df),
        cloud_(&cloud),
        omega_target_(omega_target),
        acquisition_(acquisition) {}

  void setSpotPreference(double fraction, std::uint64_t seed) {
    spot_fraction_ = fraction;
    spot_seed_ = seed;
  }

  [[nodiscard]] int acquisitionRejections() const { return rejections_; }

  std::vector<double> allocatedPower(const CorePowerFn& power) const {
    std::vector<double> pw(df_->peCount(), 0.0);
    for (const VmInstance& vm : cloud_->instances()) {
      if (!vm.isActive()) continue;
      const double per_core = power(vm.id());
      for (int c = 0; c < vm.coreCount(); ++c) {
        if (const auto owner = vm.coreOwner(c)) {
          pw[owner->value()] += per_core;
        }
      }
    }
    return pw;
  }

  void scaleOut(const Deployment& deployment, double input_rate,
                const CorePowerFn& power, SimTime now, Strategy scope,
                double target = -1.0,
                const std::vector<double>* measured_arrivals = nullptr) {
    if (target < 0.0) target = omega_target_;
    const auto required =
        demandVector(deployment, input_rate, measured_arrivals);
    double min_speed = std::numeric_limits<double>::infinity();
    for (const auto& cls : cloud_->catalog().classes()) {
      min_speed = std::min(min_speed, cls.core_speed);
    }
    double total_required = 0.0;
    for (double r : required) total_required += r;
    if (measured_arrivals != nullptr) {
      for (double r : requiredCorePower(*df_, deployment, input_rate)) {
        total_required += r;
      }
    }
    const auto max_iters =
        4 * static_cast<std::size_t>(total_required / min_speed) +
        4 * df_->peCount() + 64;
    for (std::size_t iter = 0; iter < max_iters; ++iter) {
      const std::vector<double> pw = allocatedPower(power);
      std::vector<double> deficit(df_->peCount(), 0.0);
      bool satisfied = true;
      if (scope == Strategy::Global) {
        const ThroughputProjection proj =
            projectThroughput(*df_, deployment, input_rate, pw);
        satisfied = proj.omega >= target - kEps;
        for (std::size_t i = 0; i < deficit.size(); ++i) {
          deficit[i] = proj.pe_omega[i] - 1.0;
        }
      } else {
        for (std::size_t i = 0; i < deficit.size(); ++i) {
          const PeId pe(static_cast<PeId::value_type>(i));
          double pe_omega = 1.0;
          if (required[i] > kEps) {
            pe_omega = std::min(1.0, pw[i] / required[i]);
          }
          const double pe_target = df_->isInput(pe) ? target : 1.0;
          deficit[i] = pe_omega - pe_target;
          if (deficit[i] < -kEps) satisfied = false;
        }
      }
      if (satisfied) return;
      const auto it = std::min_element(deficit.begin(), deficit.end());
      if (*it >= -kEps) return;
      const PeId bottleneck(
          static_cast<PeId::value_type>(std::distance(deficit.begin(), it)));
      if (!allocateCoreForPe(bottleneck, now)) return;
    }
    throw InvariantError("naive incremental allocation did not converge");
  }

  std::vector<MigrationEvent> scaleIn(
      const Deployment& deployment, double input_rate,
      const CorePowerFn& power, Strategy scope, double floor_omega,
      const std::vector<double>* measured_arrivals = nullptr) {
    std::vector<MigrationEvent> migrations;
    const auto required =
        demandVector(deployment, input_rate, measured_arrivals);
    int initial_cores = 0;
    for (const VmInstance& vm : cloud_->instances()) {
      if (vm.isActive()) initial_cores += coreCountOf(vm);
    }
    for (int iter = 0; iter < initial_cores; ++iter) {
      std::vector<double> pw = allocatedPower(power);
      struct Candidate {
        PeId pe{0};
        VmId vm{0};
        double surplus = 0.0;
      };
      std::optional<Candidate> best;
      for (const auto& element : df_->pes()) {
        const PeId pe = element.id();
        int count = 0;
        std::optional<VmId> victim;
        int victim_load = std::numeric_limits<int>::max();
        for (const VmInstance& vm : cloud_->instances()) {
          if (!vm.isActive()) continue;
          const int on_vm = vm.coresOwnedBy(pe);
          if (on_vm == 0) continue;
          count += on_vm;
          const int load = coreCountOf(vm);
          if (load < victim_load) {
            victim_load = load;
            victim = vm.id();
          }
        }
        if (count <= 1) continue;
        const double reduced = pw[pe.value()] - power(*victim);
        bool ok;
        if (scope == Strategy::Global) {
          std::vector<double> trial = pw;
          trial[pe.value()] = reduced;
          ok = projectThroughput(*df_, deployment, input_rate, trial).omega >=
               floor_omega - kEps;
        } else {
          const double req = required[pe.value()];
          const double pe_floor = df_->isInput(pe) ? floor_omega : 1.0;
          ok = req <= kEps || reduced / req >= pe_floor - kEps;
        }
        if (!ok) continue;
        const double surplus =
            pw[pe.value()] / std::max(required[pe.value()], kEps);
        if (!best.has_value() || surplus > best->surplus) {
          best = Candidate{pe, *victim, surplus};
        }
      }
      if (!best.has_value()) break;
      const int before_on_vm =
          cloud_->instance(best->vm).coresOwnedBy(best->pe);
      int before_total = 0;
      for (const VmInstance& vm : cloud_->instances()) {
        if (vm.isActive()) before_total += vm.coresOwnedBy(best->pe);
      }
      cloud_->releaseCoreOf(best->vm, best->pe);
      if (before_on_vm == 1 && before_total > 1) {
        migrations.push_back(
            {best->pe, 1.0 / static_cast<double>(before_total)});
      }
    }
    return migrations;
  }

 private:
  static constexpr double kEps = 1e-9;
  static constexpr std::uint64_t kSpotChoiceTag = 0x7a3d91c5ull;

  std::vector<double> demandVector(const Deployment& deployment,
                                   double input_rate,
                                   const std::vector<double>* measured) const {
    if (measured == nullptr) {
      return requiredCorePower(*df_, deployment, input_rate);
    }
    std::vector<double> required(*measured);
    for (const auto& pe : df_->pes()) {
      required[pe.id().value()] *=
          pe.alternate(deployment.activeAlternate(pe.id())).cost_core_sec;
    }
    return required;
  }

  bool hostsPe(const VmInstance& vm, PeId pe) const {
    return vm.coresOwnedBy(pe) > 0;
  }

  bool hostsNeighbor(const VmInstance& vm, PeId pe) const {
    for (const PeId u : df_->predecessors(pe)) {
      if (hostsPe(vm, u)) return true;
    }
    for (const PeId v : df_->successors(pe)) {
      if (hostsPe(vm, v)) return true;
    }
    return false;
  }

  /// Allocated cores of `vm`, recounted slot by slot.
  static int coreCountOf(const VmInstance& vm) {
    int n = 0;
    for (int c = 0; c < vm.coreCount(); ++c) {
      n += vm.coreOwner(c).has_value() ? 1 : 0;
    }
    return n;
  }

  static int freeSlots(const VmInstance& vm) {
    return vm.coreCount() - coreCountOf(vm);
  }

  bool allocateCoreForPe(PeId pe, SimTime now) {
    std::optional<VmId> best;
    int best_rank = -1;
    double best_speed = -1.0;
    int best_free = std::numeric_limits<int>::max();
    for (const VmInstance& vm : cloud_->instances()) {
      if (!vm.isActive() || freeSlots(vm) == 0) continue;
      int rank = 0;
      if (hostsPe(vm, pe)) {
        rank = 2;
      } else if (hostsNeighbor(vm, pe)) {
        rank = 1;
      }
      const double speed = vm.spec().core_speed;
      const int free = freeSlots(vm);
      const bool better =
          rank > best_rank ||
          (rank == best_rank &&
           (speed > best_speed || (speed == best_speed && free < best_free)));
      if (better) {
        best = vm.id();
        best_rank = rank;
        best_speed = speed;
        best_free = free;
      }
    }
    if (!best.has_value()) {
      best = acquireNew(now);
      if (!best.has_value()) return false;
    }
    cloud_->allocateCore(*best, pe);
    return true;
  }

  ResourceClassId preferredClass() const {
    const ResourceCatalog& catalog = cloud_->catalog();
    std::optional<std::size_t> best;
    for (std::size_t c = 0; c < catalog.size(); ++c) {
      const auto& cand = catalog.at(
          ResourceClassId(static_cast<ResourceClassId::value_type>(c)));
      if (cand.preemptible) continue;
      if (!best.has_value()) {
        best = c;
        continue;
      }
      const auto& cur = catalog.at(
          ResourceClassId(static_cast<ResourceClassId::value_type>(*best)));
      bool better;
      if (acquisition_ == AcquisitionPolicy::LargestFirst) {
        better = cand.totalPower() > cur.totalPower() ||
                 (cand.totalPower() == cur.totalPower() &&
                  cand.price_per_hour < cur.price_per_hour);
      } else {
        const double cand_rate = cand.price_per_hour / cand.totalPower();
        const double cur_rate = cur.price_per_hour / cur.totalPower();
        better = cand_rate < cur_rate - kEps ||
                 (std::abs(cand_rate - cur_rate) <= kEps &&
                  cand.totalPower() > cur.totalPower());
      }
      if (better) best = c;
    }
    return ResourceClassId(static_cast<ResourceClassId::value_type>(*best));
  }

  std::optional<VmId> acquireNew(SimTime now) {
    if (now < acquisition_retry_after_) return std::nullopt;
    const ResourceCatalog& catalog = cloud_->catalog();
    const ResourceClassId preferred = preferredClass();
    std::vector<ResourceClassId> candidates;
    if (spot_fraction_ > 0.0 && catalog.hasPreemptible()) {
      const std::uint64_t h = splitmix64(spot_seed_ ^ kSpotChoiceTag ^
                                         splitmix64(spot_ordinal_));
      ++spot_ordinal_;
      if (hashToUnitInterval(h) <= spot_fraction_) {
        if (const auto spot = catalog.spotTwin(preferred)) {
          candidates.push_back(*spot);
        }
      }
    }
    candidates.push_back(preferred);
    std::vector<ResourceClassId> fallbacks;
    for (std::size_t c = 0; c < catalog.size(); ++c) {
      const ResourceClassId id(static_cast<ResourceClassId::value_type>(c));
      if (id != preferred && !catalog.at(id).preemptible &&
          catalog.at(id).price_per_hour <
              catalog.at(preferred).price_per_hour + kEps) {
        fallbacks.push_back(id);
      }
    }
    std::sort(fallbacks.begin(), fallbacks.end(),
              [&](ResourceClassId a, ResourceClassId b) {
                return catalog.at(a).price_per_hour >
                       catalog.at(b).price_per_hour;
              });
    candidates.insert(candidates.end(), fallbacks.begin(), fallbacks.end());
    const ResilienceConfig resilience;
    for (int attempt = 0; attempt < resilience.acquisition_max_retries &&
                          attempt < static_cast<int>(candidates.size());
         ++attempt) {
      const auto result = cloud_->tryAcquire(
          candidates[static_cast<std::size_t>(attempt)], now);
      if (result.ok()) {
        consecutive_unmet_ = 0;
        return result.vm;
      }
      ++rejections_;
    }
    ++consecutive_unmet_;
    const double factor =
        static_cast<double>(1 << std::min(consecutive_unmet_ - 1, 3));
    acquisition_retry_after_ =
        now + resilience.acquisition_backoff_s * factor;
    return std::nullopt;
  }

  const Dataflow* df_;
  CloudProvider* cloud_;
  double omega_target_;
  AcquisitionPolicy acquisition_;
  double spot_fraction_ = 0.0;
  std::uint64_t spot_seed_ = 0;
  std::uint64_t spot_ordinal_ = 0;
  SimTime acquisition_retry_after_ = 0.0;
  int consecutive_unmet_ = 0;
  int rejections_ = 0;
};

}  // namespace dds::testing

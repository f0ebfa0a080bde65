#include "dds/sched/allocation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "dds/common/rng.hpp"
#include "dds/sim/rate_model.hpp"

namespace dds {
namespace {

constexpr double kEps = 1e-9;

/// Hash-family tag for the per-acquisition spot/on-demand choice.
constexpr std::uint64_t kSpotChoiceTag = 0x7a3d91c5ull;

bool hostsPe(const VmInstance& vm, PeId pe) {
  return vm.coresOwnedBy(pe) > 0;
}

bool hostsNeighbor(const Dataflow& df, const VmInstance& vm, PeId pe) {
  for (const PeId u : df.predecessors(pe)) {
    if (hostsPe(vm, u)) return true;
  }
  for (const PeId v : df.successors(pe)) {
    if (hostsPe(vm, v)) return true;
  }
  return false;
}

}  // namespace

CorePowerFn ratedCorePowerFn(const CloudProvider& cloud) {
  return [&cloud](VmId vm) {
    return cloud.instance(vm).spec().core_speed;
  };
}

CorePowerFn observedCorePowerFn(const MonitoringService& mon, SimTime t) {
  return [&mon, t](VmId vm) { return mon.observedCorePower(vm, t); };
}

void ThroughputProjector::bind(const Dataflow& df,
                               const Deployment& deployment,
                               double input_rate) {
  df_ = &df;
  input_rate_ = input_rate;
  requiredCorePowerInto(df, deployment, input_rate, proj_.required_power);
  expectedOutputRatesInto(df, deployment, input_rate, expected_);
  const std::size_t n = df.peCount();
  alt_cost_.resize(n);
  alt_sel_.resize(n);
  for (const auto& pe : df.pes()) {
    const auto& alt = pe.alternate(deployment.activeAlternate(pe.id()));
    alt_cost_[pe.id().value()] = alt.cost_core_sec;
    alt_sel_[pe.id().value()] = alt.selectivity;
  }
}

const ThroughputProjection& ThroughputProjector::project(
    const std::vector<double>& pe_power) {
  DDS_REQUIRE(df_ != nullptr, "projector used before bind()");
  const Dataflow& df = *df_;
  DDS_REQUIRE(pe_power.size() == df.peCount(),
              "power vector does not match dataflow");
  proj_.pe_omega.assign(df.peCount(), 1.0);

  // Finite-capacity steady-state propagation (planning ignores network
  // caps; the simulator applies them when the plan actually runs).
  out_.assign(df.peCount(), 0.0);
  for (const PeId pe : df.topologicalOrder()) {
    const std::size_t i = pe.value();
    double arrival = 0.0;
    if (df.isInput(pe)) {
      arrival = input_rate_;
    } else {
      for (const PeId u : df.predecessors(pe)) arrival += out_[u.value()];
    }
    const double cap = pe_power[i] / alt_cost_[i];
    out_[i] = std::min(arrival, cap) * alt_sel_[i];
    proj_.pe_omega[i] = proj_.required_power[i] > kEps
                            ? std::min(1.0, pe_power[i] /
                                                proj_.required_power[i])
                            : 1.0;
  }

  double omega_sum = 0.0;
  for (const PeId o : df.outputs()) {
    const double exp_rate = expected_[o.value()];
    const double ratio = exp_rate > kEps ? out_[o.value()] / exp_rate : 1.0;
    omega_sum += std::clamp(ratio, 0.0, 1.0);
  }
  proj_.omega = omega_sum / static_cast<double>(df.outputs().size());
  return proj_;
}

ThroughputProjection projectThroughput(const Dataflow& df,
                                       const Deployment& deployment,
                                       double input_rate,
                                       const std::vector<double>& pe_power) {
  ThroughputProjector projector;
  projector.bind(df, deployment, input_rate);
  return projector.project(pe_power);
}

void ResourceAllocator::traceCoreAlloc(VmId vm, PeId pe, std::int64_t delta,
                                       SimTime now) {
  if (tracer_.enabled()) {
    tracer_.emit(obs::CoreAllocEvent{
        .t = now, .vm = vm.value(), .pe = pe.value(), .delta = delta});
  }
  if (metrics_ != nullptr) {
    metrics_
        ->counter(delta > 0 ? "alloc.cores_allocated"
                            : "alloc.cores_released")
        .inc();
  }
}

ResourceAllocator::ResourceAllocator(const Dataflow& df, CloudProvider& cloud,
                                     double omega_target,
                                     AcquisitionPolicy acquisition)
    : df_(&df),
      cloud_(&cloud),
      omega_target_(omega_target),
      acquisition_(acquisition) {
  DDS_REQUIRE(omega_target > 0.0 && omega_target <= 1.0,
              "omega target out of range");
}

std::vector<double> ResourceAllocator::allocatedPower(
    const CorePowerFn& power) const {
  std::vector<double> pw(df_->peCount(), 0.0);
  for (const VmId id : cloud_->activeIds()) {
    const VmInstance& vm = cloud_->instance(id);
    const double per_core = power(id);
    for (int c = 0; c < vm.coreCount(); ++c) {
      if (const auto owner = vm.coreOwner(c)) {
        pw[owner->value()] += per_core;
      }
    }
  }
  return pw;
}

void ResourceAllocator::ScaleView::reset(const CloudProvider& cloud,
                                         const CorePowerFn& power,
                                         std::size_t pe_count) {
  power_fn_ = &power;
  hosts_.resize(pe_count);
  for (auto& row : hosts_) row.clear();
  // resize() grows geometrically; assign() would reallocate to the exact
  // size every time a call sees a freshly acquired VM.
  vm_power_.resize(cloud.instanceCount());
  std::fill(vm_power_.begin(), vm_power_.end(),
            std::numeric_limits<double>::quiet_NaN());
  // One ledger pass, VMs ascending: a PE's row gains an entry the first
  // time the PE shows up on a VM, so each row comes out VM-id sorted.
  for (const VmId id : cloud.activeIds()) {
    const VmInstance& vm = cloud.instance(id);
    for (int c = 0; c < vm.coreCount(); ++c) {
      const auto owner = vm.coreOwner(c);
      if (!owner.has_value()) continue;
      auto& row = hosts_[owner->value()];
      if (row.empty() || row.back().vm != id) {
        row.push_back({id, 1});
      } else {
        ++row.back().cores;
      }
    }
  }
  pe_power_.resize(pe_count);
  for (std::size_t i = 0; i < pe_count; ++i) {
    resum(PeId(static_cast<PeId::value_type>(i)));
  }
}

double ResourceAllocator::ScaleView::corePower(VmId vm) {
  if (vm.value() >= vm_power_.size()) {
    vm_power_.resize(vm.value() + 1, std::numeric_limits<double>::quiet_NaN());
  }
  double& memo = vm_power_[vm.value()];
  if (std::isnan(memo)) memo = (*power_fn_)(vm);
  return memo;
}

void ResourceAllocator::ScaleView::resum(PeId pe) {
  double sum = 0.0;
  for (const Host& h : hosts_[pe.value()]) {
    const double per_core = corePower(h.vm);
    for (int c = 0; c < h.cores; ++c) sum += per_core;
  }
  pe_power_[pe.value()] = sum;
}

void ResourceAllocator::ScaleView::changeCore(PeId pe, VmId vm, int delta) {
  auto& row = hosts_[pe.value()];
  const auto it = std::lower_bound(
      row.begin(), row.end(), vm,
      [](const Host& h, VmId id) { return h.vm < id; });
  if (it != row.end() && it->vm == vm) {
    it->cores += delta;
    if (it->cores == 0) row.erase(it);
  } else {
    DDS_REQUIRE(delta > 0, "PE holds no core on that VM");
    row.insert(it, {vm, delta});
  }
  resum(pe);
}

ResourceClassId ResourceAllocator::preferredClass() const {
  // The preference is computed over the on-demand classes only: the spot
  // tier mirrors their hardware at a discount, so ranking would otherwise
  // always land on a spot twin. Whether to *take* the spot twin is a
  // separate per-acquisition decision in acquireNew(). Catalogs with no
  // spot tier walk exactly the pre-spot candidate set.
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
      // Alg. 1's "VMClasses.First": most aggregate power, ties cheaper.
      better = cand.totalPower() > cur.totalPower() ||
               (cand.totalPower() == cur.totalPower() &&
                cand.price_per_hour < cur.price_per_hour);
    } else {
      // CheapestPower: best dollars per unit of rated power; ties go to
      // the larger class (fewer VMs, better colocation).
      const double cand_rate = cand.price_per_hour / cand.totalPower();
      const double cur_rate = cur.price_per_hour / cur.totalPower();
      better = cand_rate < cur_rate - kEps ||
               (std::abs(cand_rate - cur_rate) <= kEps &&
                cand.totalPower() > cur.totalPower());
    }
    if (better) best = c;
  }
  DDS_ENSURE(best.has_value(), "catalog has no on-demand class");
  return ResourceClassId(static_cast<ResourceClassId::value_type>(*best));
}

std::optional<VmId> ResourceAllocator::acquireNew(SimTime now) {
  if (acquisitionBackoffActive(now)) return std::nullopt;
  const ResourceCatalog& catalog = cloud_->catalog();

  // Candidate order: the policy-preferred class first, then the cheaper
  // fallback classes by descending price — when the provider cannot
  // deliver the preferred class, any cheaper capacity is better than none
  // (the incremental loop tops up with further VMs as needed). When a
  // spot tier exists and the per-acquisition hash lands inside the spot
  // fraction, the preferred class's spot twin is tried before it; the
  // fallback chain stays on-demand either way, so a rejected spot bid
  // degrades to reliable capacity, never to more spot.
  const ResourceClassId preferred = preferredClass();
  std::vector<ResourceClassId> candidates;
  if (spot_fraction_ > 0.0 && !spot_suppressed_ &&
      catalog.hasPreemptible()) {
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

  const int budget = resilience_.acquisition_max_retries;
  for (int attempt = 0;
       attempt < budget && attempt < static_cast<int>(candidates.size());
       ++attempt) {
    const auto result = cloud_->tryAcquire(
        candidates[static_cast<std::size_t>(attempt)], now);
    if (result.ok()) {
      consecutive_unmet_ = 0;
      return result.vm;
    }
    ++rejections_;
  }

  // Every attempt rejected: arm exponential backoff so the scheduler does
  // not hammer a failing control plane every interval. Graceful
  // degradation (alternate downgrades) covers the gap meanwhile.
  ++consecutive_unmet_;
  if (resilience_.acquisition_backoff_s > 0.0) {
    const double factor =
        static_cast<double>(1 << std::min(consecutive_unmet_ - 1, 3));
    acquisition_retry_after_ =
        now + resilience_.acquisition_backoff_s * factor;
  }
  return std::nullopt;
}

std::optional<VmId> ResourceAllocator::allocateCoreForPe(PeId pe,
                                                         SimTime now,
                                                         bool allow_acquire) {
  // Rank free-core VMs: colocate with itself, then with graph neighbours,
  // then anywhere; prefer faster cores, then tighter packing.
  std::optional<VmId> best;
  int best_rank = -1;
  double best_speed = -1.0;
  int best_free = std::numeric_limits<int>::max();
  for (const VmId id : cloud_->activeIds()) {
    const VmInstance& vm = cloud_->instance(id);
    if (vm.freeCoreCount() == 0) continue;
    int rank = 0;
    if (hostsPe(vm, pe)) {
      rank = 2;
    } else if (hostsNeighbor(*df_, vm, pe)) {
      rank = 1;
    }
    const double speed = vm.spec().core_speed;
    const int free = vm.freeCoreCount();
    const bool better =
        rank > best_rank ||
        (rank == best_rank &&
         (speed > best_speed || (speed == best_speed && free < best_free)));
    if (better) {
      best = id;
      best_rank = rank;
      best_speed = speed;
      best_free = free;
    }
  }
  if (!best.has_value()) {
    if (!allow_acquire) return std::nullopt;
    best = acquireNew(now);
    if (!best.has_value()) return std::nullopt;  // rejected or backing off
  }
  cloud_->allocateCore(*best, pe);
  traceCoreAlloc(*best, pe, +1, now);
  return best;
}

void ResourceAllocator::ensureMinimumCores(SimTime now) {
  // Alg. 1 lines 13-20: walk PEs in forward BFS order, filling the most
  // recently touched VM first so dataflow neighbours land together.
  std::optional<VmId> last_vm;
  for (const PeId pe : df_->forwardBfsFromInputs()) {
    if (totalCores(*cloud_, pe) > 0) continue;
    if (!last_vm.has_value() ||
        cloud_->instance(*last_vm).freeCoreCount() == 0) {
      // Reuse any active VM with spare cores before acquiring a new one.
      last_vm.reset();
      for (const VmId id : cloud_->activeIds()) {
        if (cloud_->instance(id).freeCoreCount() > 0) {
          last_vm = id;
          break;
        }
      }
      if (!last_vm.has_value()) last_vm = acquireNew(now);
      // Provider rejected even the fallback classes: leave the remaining
      // PEs unplaced for now; the next adaptation retries after backoff.
      if (!last_vm.has_value()) return;
    }
    cloud_->allocateCore(*last_vm, pe);
    traceCoreAlloc(*last_vm, pe, +1, now);
  }
}

namespace {

/// Per-PE demand (normalized core power): measured arrivals when given,
/// graph-propagated expected arrivals otherwise.
std::vector<double> demandVector(const Dataflow& df,
                                 const Deployment& deployment,
                                 double input_rate,
                                 const std::vector<double>* measured) {
  if (measured == nullptr) {
    return requiredCorePower(df, deployment, input_rate);
  }
  DDS_REQUIRE(measured->size() == df.peCount(),
              "measured arrival vector does not match dataflow");
  std::vector<double> required(*measured);
  for (const auto& pe : df.pes()) {
    required[pe.id().value()] *=
        pe.alternate(deployment.activeAlternate(pe.id())).cost_core_sec;
  }
  return required;
}

}  // namespace

void ResourceAllocator::scaleOut(const Deployment& deployment,
                                 double input_rate, const CorePowerFn& power,
                                 SimTime now, Strategy scope, double target,
                                 const std::vector<double>* measured_arrivals) {
  if (target < 0.0) target = omega_target_;
  DDS_REQUIRE(target <= 1.0, "scale-out target cannot exceed 1");
  const auto required =
      demandVector(*df_, deployment, input_rate, measured_arrivals);

  // Convergence bound: the demand is finite, every added core contributes
  // at least the slowest catalog core's power.
  double min_speed = std::numeric_limits<double>::infinity();
  for (const auto& cls : cloud_->catalog().classes()) {
    min_speed = std::min(min_speed, cls.core_speed);
  }
  double total_required = 0.0;
  for (double r : required) total_required += r;
  if (measured_arrivals != nullptr) {
    // Measured and expected demand can differ; bound on their sum.
    for (double r : requiredCorePower(*df_, deployment, input_rate)) {
      total_required += r;
    }
  }
  // The observed per-core power can sit well below rated (trace floor is
  // ~0.4x), so allow proportionally more iterations than the rated bound.
  const auto max_iters =
      4 * static_cast<std::size_t>(total_required / min_speed) +
      4 * df_->peCount() + 64;

  // The alternates are fixed for the whole call, so the projection's
  // graph-propagated tables are bound once and every iteration only
  // re-projects the updated power vector.
  if (scope == Strategy::Global) {
    projector_.bind(*df_, deployment, input_rate);
  }
  view_.reset(*cloud_, power, df_->peCount());
  const std::vector<double>& pw = view_.power();
  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    // Deficit of each PE against its target; the most negative deficit is
    // the bottleneck. A PE at its saturation point (pe_omega == 1) cannot
    // be improved and never counts as a deficit.
    std::vector<double>& deficit = deficit_scratch_;
    deficit.assign(df_->peCount(), 0.0);
    bool satisfied = true;
    if (scope == Strategy::Global) {
      // Graph-wide projection at predicted rates: allocate only while the
      // *application* omega trails the target.
      const ThroughputProjection& proj = projector_.project(pw);
      satisfied = proj.omega >= target - kEps;
      for (std::size_t i = 0; i < deficit.size(); ++i) {
        deficit[i] = proj.pe_omega[i] - 1.0;
      }
    } else {
      // Local view: each PE against its own (possibly stale) measured
      // demand. Only the input PEs throttle to the constraint; every
      // downstream PE is sized to serve what actually arrives — otherwise
      // per-stage throttling would compound (0.7^depth at the sink).
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

    const auto bottleneck_it =
        std::min_element(deficit.begin(), deficit.end());
    if (*bottleneck_it >= -kEps) return;  // nothing left to improve
    const PeId bottleneck(static_cast<PeId::value_type>(
        std::distance(deficit.begin(), bottleneck_it)));
    const auto granted =
        allocateCoreForPe(bottleneck, now, /*allow_acquire=*/true);
    if (!granted.has_value()) return;
    view_.changeCore(bottleneck, *granted, +1);
  }
  throw InvariantError(
      "incremental allocation failed to converge within its bound");
}

std::vector<MigrationEvent> ResourceAllocator::scaleIn(
    const Deployment& deployment, double input_rate,
    const CorePowerFn& power, Strategy scope, double floor_omega,
    const std::vector<double>* measured_arrivals, SimTime now) {
  std::vector<MigrationEvent> migrations;
  const auto required =
      demandVector(*df_, deployment, input_rate, measured_arrivals);
  const int initial_cores = totalAllocatedCores(*cloud_);
  // Alternates are fixed for the whole call: bind the projection once and
  // re-project candidate power vectors in place (mutate one entry, test,
  // restore) instead of copying the vector per candidate.
  if (scope == Strategy::Global) {
    projector_.bind(*df_, deployment, input_rate);
  }
  view_.reset(*cloud_, power, df_->peCount());
  std::vector<double>& pw = view_.power();
  for (int iter = 0; iter < initial_cores; ++iter) {
    // Candidate = the PE with the largest surplus whose core removal keeps
    // the (scope-dependent) projection at or above the floor. The core we
    // give up is the one on the PE's least-loaded VM, so removals
    // concentrate and eventually empty whole VMs.
    struct Candidate {
      PeId pe{0};
      VmId vm{0};
      int on_vm = 0;  ///< the PE's cores on `vm` before the release.
      int total = 0;  ///< the PE's cores overall before the release.
      double surplus = 0.0;
    };
    std::optional<Candidate> best;
    for (const auto& element : df_->pes()) {
      const PeId pe = element.id();
      // The PE's row gives its core count and least-loaded hosting VM
      // (ties: lowest id).
      int count = 0;
      const ScaleView::Host* victim = nullptr;
      int victim_load = std::numeric_limits<int>::max();
      for (const ScaleView::Host& h : view_.hosts(pe)) {
        count += h.cores;
        const int load = cloud_->instance(h.vm).allocatedCoreCount();
        if (load < victim_load) {
          victim_load = load;
          victim = &h;
        }
      }
      if (count <= 1) continue;  // every PE keeps at least one core

      const double saved = pw[pe.value()];
      const double reduced = saved - view_.corePower(victim->vm);
      bool ok;
      if (scope == Strategy::Global) {
        pw[pe.value()] = reduced;
        ok = projector_.project(pw).omega >= floor_omega - kEps;
        pw[pe.value()] = saved;
      } else {
        const double req = required[pe.value()];
        const double pe_floor = df_->isInput(pe) ? floor_omega : 1.0;
        ok = req <= kEps || reduced / req >= pe_floor - kEps;
      }
      if (!ok) continue;
      const double surplus =
          pw[pe.value()] / std::max(required[pe.value()], kEps);
      if (!best.has_value() || surplus > best->surplus) {
        best = Candidate{pe, victim->vm, victim->cores, count, surplus};
      }
    }
    if (!best.has_value()) break;

    cloud_->releaseCoreOf(best->vm, best->pe);
    traceCoreAlloc(best->vm, best->pe, -1, now);
    view_.changeCore(best->pe, best->vm, -1);
    if (best->on_vm == 1 && best->total > 1) {
      // The PE lost its last core on this VM: its share of buffered
      // messages moves to its remaining hosts over the network.
      migrations.push_back(
          {best->pe, 1.0 / static_cast<double>(best->total)});
    }
  }
  return migrations;
}

void ResourceAllocator::repackPes(const Deployment& deployment,
                                  double input_rate, const CorePowerFn& power,
                                  SimTime now) {
  const auto required = requiredCorePower(*df_, deployment, input_rate);
  for (const auto& element : df_->pes()) {
    const PeId pe = element.id();
    const auto cores = peCores(*cloud_, pe);
    for (const auto& vc : cores) {
      const VmInstance& vm = cloud_->instance(vc.vm);
      if (vm.allocatedCoreCount() != vc.cores) continue;  // not sole tenant

      double other_power = 0.0;
      for (const auto& other : cores) {
        if (other.vm != vc.vm) {
          other_power +=
              static_cast<double>(other.cores) * power(other.vm);
        }
      }
      const bool needs_core_elsewhere = (cores.size() == 1);
      const double residual =
          std::max(required[pe.value()] - other_power, 0.0);
      if (residual <= kEps && !needs_core_elsewhere) {
        // Fully covered elsewhere: just vacate this VM.
        cloud_->releaseAllCoresOf(vc.vm, pe);
        continue;
      }
      // Repacking is a cost move, not a reliability bet: a spot twin is
      // always the cheapest fitting class, so map back to its on-demand
      // hardware (identity when the catalog has no spot tier).
      const ResourceClassId target_cls = cloud_->catalog().onDemandTwin(
          cloud_->catalog().smallestFitting(std::max(residual, kEps)));
      const ResourceClass& target_spec = cloud_->catalog().at(target_cls);
      if (target_spec.price_per_hour >= vm.spec().price_per_hour) continue;

      const int needed_cores = std::max(
          1, static_cast<int>(
                 std::ceil(residual / target_spec.core_speed - kEps)));
      DDS_ENSURE(needed_cores <= target_spec.cores,
                 "smallestFitting returned an undersized class");
      // Repacking is an optimization: if the provider rejects the smaller
      // VM, keep the current (pricier but working) layout.
      const AcquisitionResult fresh = cloud_->tryAcquire(target_cls, now);
      if (!fresh.ok()) continue;
      for (int c = 0; c < needed_cores; ++c) {
        cloud_->allocateCore(fresh.vm, pe);
      }
      cloud_->releaseAllCoresOf(vc.vm, pe);
      break;  // this PE's layout changed; re-visit others first
    }
  }
}

void ResourceAllocator::repackFreeVms() {
  bool moved = true;
  while (moved) {
    moved = false;
    // Lightest-loaded active VM first.
    auto ids = cloud_->activeVms();
    std::sort(ids.begin(), ids.end(), [this](VmId a, VmId b) {
      return cloud_->instance(a).allocatedCoreCount() <
             cloud_->instance(b).allocatedCoreCount();
    });
    for (const VmId source_id : ids) {
      const VmInstance& source = cloud_->instance(source_id);
      const int used = source.allocatedCoreCount();
      if (used == 0) continue;

      // Feasibility: every used core needs a free slot of >= speed on some
      // other active VM. Slots are interchangeable within a VM.
      struct Slot {
        VmId vm;
        double speed;
        int free;
      };
      std::vector<Slot> slots;
      for (const VmId other_id : ids) {
        if (other_id == source_id) continue;
        const VmInstance& other = cloud_->instance(other_id);
        // Only already-used VMs may receive cores: each move then strictly
        // reduces the number of non-empty VMs, which guarantees this loop
        // terminates (no ping-ponging cores between two VMs).
        if (other.allocatedCoreCount() == 0) continue;
        if (other.freeCoreCount() > 0) {
          slots.push_back(
              {other_id, other.spec().core_speed, other.freeCoreCount()});
        }
      }
      // Fill from the slowest adequate slots so fast cores stay available.
      std::sort(slots.begin(), slots.end(),
                [](const Slot& a, const Slot& b) { return a.speed < b.speed; });
      const double need_speed = source.spec().core_speed;
      std::vector<std::pair<VmId, int>> plan;  // target VM, cores to take
      int remaining = used;
      for (auto& slot : slots) {
        if (slot.speed + kEps < need_speed) continue;
        const int take = std::min(remaining, slot.free);
        if (take > 0) {
          plan.emplace_back(slot.vm, take);
          remaining -= take;
        }
        if (remaining == 0) break;
      }
      if (remaining > 0) continue;  // cannot empty this VM

      // Execute: move owners core by core.
      std::vector<PeId> owners;
      for (int c = 0; c < source.coreCount(); ++c) {
        if (const auto owner = source.coreOwner(c)) owners.push_back(*owner);
      }
      auto plan_it = plan.begin();
      int taken_here = 0;
      for (const PeId owner : owners) {
        cloud_->releaseCoreOf(source_id, owner);
        cloud_->allocateCore(plan_it->first, owner);
        if (++taken_here == plan_it->second) {
          ++plan_it;
          taken_here = 0;
        }
      }
      moved = true;
      break;  // layout changed; recompute ordering
    }
  }
}

int ResourceAllocator::releaseEmptyVms(ReleasePolicy policy, SimTime now,
                                       SimTime interval_s) {
  int released = 0;
  // Snapshot: releasing shrinks activeIds() under the loop.
  for (const VmId id : cloud_->activeVms()) {
    const VmInstance& vm = cloud_->instance(id);
    if (vm.allocatedCoreCount() > 0) continue;
    if (policy == ReleasePolicy::AtHourBoundary) {
      // Keep the VM while its current (already paid) hour still has time
      // left — it can absorb a future scale-out for free. Release it just
      // before the next hour starts getting billed.
      if (cloud_->timeToNextHourBoundary(id, now) > interval_s) continue;
    }
    cloud_->release(id, now);
    ++released;
  }
  return released;
}

}  // namespace dds

#include "dds/faults/fault_plan.hpp"

#include <cmath>
#include <limits>

#include "dds/common/error.hpp"
#include "dds/common/rng.hpp"
#include "dds/sim/deployment.hpp"

namespace dds {
namespace {

// Family tags keep the hash streams of the four event families disjoint
// even for the same seed and entity key.
constexpr std::uint64_t kStragglerTag = 0x5742a6f1ull;
constexpr std::uint64_t kPartitionTag = 0x9e11f0adull;
constexpr std::uint64_t kRejectTag = 0x1c8f3b27ull;
constexpr std::uint64_t kDelayTag = 0x6d5e9c43ull;
constexpr std::uint64_t kPreemptTag = 0x3f84d5b9ull;

// Renewal-process episode bound: at typical MTBFs (fractions of an hour
// and up) and horizons of days this is never reached; it only guards
// against a pathological mtbf/duration combination spinning forever.
constexpr int kMaxEpisodes = 100000;

double expDraw(std::uint64_t seed, std::uint64_t tag, std::uint64_t key,
               std::uint64_t index, double mean) {
  const std::uint64_t h =
      splitmix64(seed ^ tag ^ splitmix64(key * 0x2545f491ull + index));
  return -std::log(hashToUnitInterval(h)) * mean;
}

/// Whether `rel_t` (time since the entity's epoch) falls inside any
/// episode of a renewal process with exponential gaps of mean
/// `mtbf_s` and fixed episode length `duration_s`.
bool inEpisode(std::uint64_t seed, std::uint64_t tag, std::uint64_t key,
               double rel_t, double mtbf_s, double duration_s) {
  if (rel_t < 0.0) return false;
  double cursor = 0.0;
  for (int k = 0; k < kMaxEpisodes; ++k) {
    const double start =
        cursor + expDraw(seed, tag, key, static_cast<std::uint64_t>(k),
                         mtbf_s);
    if (rel_t < start) return false;
    if (rel_t < start + duration_s) return true;
    cursor = start + duration_s;
  }
  return false;
}

/// Take down every active VM that `due_at` says is due by `now`: each
/// hosted PE loses the share of its backlog that lived there (its cores on
/// the VM over its total cores), the VM's cores vanish, and `end` retires
/// the instance under its billing rule.
template <typename DueAt, typename End>
std::vector<FailureEvent> takeDown(CloudProvider& cloud, SimTime now,
                                   DueAt due_at, End end) {
  std::vector<FailureEvent> events;
  for (const VmId id : cloud.activeVms()) {
    const VmInstance& vm = cloud.instance(id);
    const SimTime at = due_at(vm);
    if (at > now) continue;

    FailureEvent ev;
    ev.vm = id;
    ev.time = at;
    for (int c = 0; c < vm.coreCount(); ++c) {
      const auto owner = vm.coreOwner(c);
      if (!owner.has_value()) continue;
      bool seen = false;
      for (const auto& loss : ev.losses) {
        if (loss.pe == *owner) {
          seen = true;
          break;
        }
      }
      if (seen) continue;
      const int on_vm = vm.coresOwnedBy(*owner);
      const int total = totalCores(cloud, *owner);
      DDS_ENSURE(total >= on_vm, "core ledger inconsistent");
      ev.losses.push_back(
          {*owner, static_cast<double>(on_vm) / static_cast<double>(total)});
    }
    for (const auto& loss : ev.losses) {
      cloud.releaseAllCoresOf(id, loss.pe);
    }
    end(id, std::max(at, vm.startTime()));
    events.push_back(std::move(ev));
  }
  return events;
}

/// Order-independent key for an unordered VM pair.
std::uint64_t pairKey(VmId a, VmId b) {
  const std::uint64_t lo = std::min(a.value(), b.value());
  const std::uint64_t hi = std::max(a.value(), b.value());
  return (hi << 32) | lo;
}

}  // namespace

void FaultConfig::appendErrors(std::vector<std::string>& errors) const {
  require(errors, vm_mtbf_hours >= 0.0, "MTBF must be non-negative");
  require(errors, straggler_mtbf_hours >= 0.0,
          "straggler MTBF must be non-negative");
  require(errors, straggler_factor >= 0.0 && straggler_factor < 1.0,
          "straggler factor must be in [0, 1)");
  require(errors, straggler_mtbf_hours <= 0.0 || straggler_duration_s > 0.0,
          "straggler duration must be positive");
  require(errors,
          acquisition_failure_prob >= 0.0 && acquisition_failure_prob < 1.0,
          "acquisition failure probability must be in [0, 1)");
  require(errors, partition_mtbf_hours >= 0.0,
          "partition MTBF must be non-negative");
  require(errors, partition_mtbf_hours <= 0.0 || partition_duration_s > 0.0,
          "partition duration must be positive");
}

void ElasticityConfig::appendErrors(std::vector<std::string>& errors) const {
  require(errors, provisioning_delay_s >= 0.0,
          "elasticity provisioning delay must be non-negative");
  require(errors, provisioning_delay_per_core_s >= 0.0,
          "per-core provisioning delay must be non-negative");
  require(errors, spot_discount >= 0.0 && spot_discount < 1.0,
          "spot discount must be in [0, 1)");
  require(errors, spot_preemption_mtbf_h >= 0.0,
          "spot preemption MTBF must be non-negative");
  require(errors, spot_notice_s >= 0.0,
          "spot notice window must be non-negative");
  require(errors, spot_fraction >= 0.0 && spot_fraction <= 1.0,
          "spot fraction must be in [0, 1]");
  require(errors, spot_discount > 0.0 || spot_preemption_mtbf_h <= 0.0,
          "spot preemption requires a spot tier (set the spot discount)");
  require(errors, pe_state_mb >= 0.0,
          "per-PE state size must be non-negative");
  require(errors, migration_bandwidth_mbps > 0.0,
          "migration bandwidth must be positive");
}

FaultPlan::FaultPlan(std::uint64_t seed, const FaultConfig& faults,
                     const ElasticityConfig& elasticity)
    : seed_(seed), faults_(faults), elasticity_(elasticity) {
  requireValid(faults_, "fault config");
  requireValid(elasticity_, "elasticity config");
}

SimTime FaultPlan::deathTime(VmId vm, SimTime t_start) const {
  if (!faults_.crashesEnabled()) {
    return std::numeric_limits<SimTime>::infinity();
  }
  const std::uint64_t h =
      splitmix64(seed_ ^ (0x51ed2701ull + vm.value()) * 0x2545f491ull);
  const double u = hashToUnitInterval(h);
  const double lifetime_s =
      -std::log(u) * faults_.vm_mtbf_hours * kSecondsPerHour;
  return t_start + lifetime_s;
}

std::vector<FailureEvent> FaultPlan::injectUpTo(CloudProvider& cloud,
                                                SimTime now) const {
  if (!faults_.crashesEnabled()) return {};
  // A crash is a tenant-side fault: billing stops at the failure time, but
  // the started hour is still paid.
  return takeDown(
      cloud, now,
      [&](const VmInstance& vm) { return deathTime(vm.id(), vm.startTime()); },
      [&cloud](VmId id, SimTime at) {
        cloud.terminate(id, at, TerminationReason::Crashed);
      });
}

bool FaultPlan::isStraggling(VmId vm, SimTime vm_start, SimTime t) const {
  if (!faults_.stragglersEnabled()) return false;
  return inEpisode(seed_, kStragglerTag, vm.value(), t - vm_start,
                   faults_.straggler_mtbf_hours * kSecondsPerHour,
                   faults_.straggler_duration_s);
}

double FaultPlan::cpuFactor(VmId vm, SimTime vm_start, SimTime t) const {
  return isStraggling(vm, vm_start, t) ? faults_.straggler_factor : 1.0;
}

bool FaultPlan::linkPartitioned(VmId a, VmId b, SimTime t) const {
  if (!faults_.partitionsEnabled() || a == b) return false;
  // Partitions live on the absolute simulation timeline: the pair's hash
  // stream does not depend on either VM's start time, so the answer is a
  // pure function of (seed, pair, t).
  return inEpisode(seed_, kPartitionTag, pairKey(a, b), t,
                   faults_.partition_mtbf_hours * kSecondsPerHour,
                   faults_.partition_duration_s);
}

bool FaultPlan::acquisitionRejected(std::uint64_t attempt) const {
  if (!faults_.rejectionsEnabled()) return false;
  const std::uint64_t h =
      splitmix64(seed_ ^ kRejectTag ^ splitmix64(attempt));
  return hashToUnitInterval(h) <= faults_.acquisition_failure_prob;
}

SimTime FaultPlan::provisioningDelay(VmId vm,
                                     const ResourceClass& cls) const {
  const double mean = elasticity_.meanProvisioningDelay(cls.cores);
  if (mean <= 0.0) return 0.0;
  // Same tag/key/index as the class-independent model: with a zero
  // per-core term the draw is bit-identical to the pre-class behavior.
  return expDraw(seed_, kDelayTag, vm.value(), 0, mean);
}

SimTime FaultPlan::preemptionTime(VmId vm, SimTime vm_start) const {
  if (!elasticity_.preemptionsEnabled()) {
    return std::numeric_limits<SimTime>::infinity();
  }
  return vm_start +
         expDraw(seed_, kPreemptTag, vm.value(), 0,
                 elasticity_.spot_preemption_mtbf_h * kSecondsPerHour);
}

std::vector<FailureEvent> FaultPlan::injectPreemptionsUpTo(
    CloudProvider& cloud, SimTime now) const {
  if (!elasticity_.preemptionsEnabled()) return {};
  return takeDown(
      cloud, now,
      [&](const VmInstance& vm) {
        return vm.spec().preemptible
                   ? preemptionTime(vm.id(), vm.startTime())
                   : std::numeric_limits<SimTime>::infinity();
      },
      [&cloud](VmId id, SimTime at) { cloud.preempt(id, at); });
}

}  // namespace dds

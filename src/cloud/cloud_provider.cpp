#include "dds/cloud/cloud_provider.hpp"

#include <algorithm>

namespace dds {

VmId CloudProvider::acquireInternal(ResourceClassId cls, SimTime t) {
  DDS_REQUIRE(t >= 0.0, "acquire time must be non-negative");
  const VmId id(static_cast<VmId::value_type>(instances_.size()));
  instances_.emplace_back(id, cls, catalog_->at(cls), t);
  active_ids_.push_back(id);  // ids are handed out ascending
  ++ledger_generation_;
  return id;
}

VmId CloudProvider::acquire(ResourceClassId cls, SimTime t) {
  const VmId id = acquireInternal(cls, t);
  if (tracer_.enabled()) {
    const ResourceClass& spec = catalog_->at(cls);
    tracer_.emit(obs::VmAcquireEvent{.t = t,
                                     .vm = id.value(),
                                     .vm_class = spec.name,
                                     .cores = spec.cores,
                                     .price_per_hour = spec.price_per_hour,
                                     .ready = t});
  }
  return id;
}

AcquisitionResult CloudProvider::tryAcquire(ResourceClassId cls, SimTime t) {
  DDS_REQUIRE(t >= 0.0, "acquire time must be non-negative");
  const std::uint64_t attempt = acquisition_attempts_++;
  if (acq_faults_ != nullptr && acq_faults_->acquisitionRejected(attempt)) {
    ++rejections_;
    if (tracer_.enabled()) {
      tracer_.emit(obs::AcquisitionFailureEvent{
          .t = t, .vm_class = catalog_->at(cls).name});
    }
    return {};
  }
  AcquisitionResult result;
  result.accepted = true;
  result.vm = acquireInternal(cls, t);
  result.ready_time =
      acq_faults_ != nullptr
          ? t + acq_faults_->provisioningDelay(result.vm, catalog_->at(cls))
          : t;
  instances_[result.vm.value()].setReadyTime(result.ready_time);
  if (tracer_.enabled()) {
    const ResourceClass& spec = catalog_->at(cls);
    tracer_.emit(obs::VmAcquireEvent{.t = t,
                                     .vm = result.vm.value(),
                                     .vm_class = spec.name,
                                     .cores = spec.cores,
                                     .price_per_hour = spec.price_per_hour,
                                     .ready = result.ready_time});
  }
  return result;
}

void CloudProvider::release(VmId id, SimTime t) {
  DDS_REQUIRE(instance(id).allocatedCoreCount() == 0,
              "release requires all cores to be freed first");
  terminate(id, t, TerminationReason::Released);
}

void CloudProvider::terminate(VmId id, SimTime t, TerminationReason reason) {
  VmInstance& vm = mutableInstance(id);
  vm.shutdown(t, reason);
  active_ids_.erase(
      std::lower_bound(active_ids_.begin(), active_ids_.end(), id));
  ++ledger_generation_;
  if (tracer_.enabled()) {
    tracer_.emit(obs::VmReleaseEvent{.t = t,
                                     .vm = id.value(),
                                     .vm_class = vm.spec().name,
                                     .billed_cost = instanceCost(id, t)});
  }
}

SimTime CloudProvider::preemptionTimeOf(VmId id) const {
  const VmInstance& vm = instance(id);
  if (preemption_model_ == nullptr || !vm.spec().preemptible) {
    return std::numeric_limits<SimTime>::infinity();
  }
  return preemption_model_->preemptionTime(id, vm.startTime());
}

int CloudProvider::billedHours(VmId id, SimTime t) const {
  const VmInstance& vm = instance(id);
  const SimTime end = std::min(vm.offTime(), t);
  if (end <= vm.startTime()) return 0;
  const double hours = (end - vm.startTime()) / kSecondsPerHour;
  // Spot convention (2013 AWS): when the *provider* reclaims the instance,
  // the partial started hour is forgiven — only whole elapsed hours bill.
  // Tenant-initiated release and tenant-side crashes keep the round-up rule.
  if (vm.terminationReason() == TerminationReason::Preempted &&
      t >= vm.offTime()) {
    return static_cast<int>(std::floor(hours + 1e-12));
  }
  return static_cast<int>(std::ceil(hours - 1e-12));
}

double CloudProvider::instanceCost(VmId id, SimTime t) const {
  return static_cast<double>(billedHours(id, t)) *
         instance(id).spec().price_per_hour;
}

double CloudProvider::accumulatedCost(SimTime t) const {
  double total = 0.0;
  for (const auto& vm : instances_) total += instanceCost(vm.id(), t);
  return total;
}

SimTime CloudProvider::timeToNextHourBoundary(VmId id, SimTime t) const {
  const VmInstance& vm = instance(id);
  DDS_REQUIRE(t >= vm.startTime(), "time precedes VM start");
  const double elapsed = t - vm.startTime();
  const double into_hour = std::fmod(elapsed, kSecondsPerHour);
  return into_hour == 0.0 ? 0.0 : kSecondsPerHour - into_hour;
}

}  // namespace dds

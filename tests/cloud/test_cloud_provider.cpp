#include "dds/cloud/cloud_provider.hpp"

#include <gtest/gtest.h>

#include <random>

#include "dds/common/rng.hpp"
#include "dds/faults/fault_plan.hpp"

namespace dds {
namespace {

CloudProvider makeCloud() { return CloudProvider(awsCatalog2013()); }

TEST(CloudProvider, AcquireCreatesActiveInstance) {
  auto cloud = makeCloud();
  const VmId id = cloud.acquire(ResourceClassId(0), 100.0);
  EXPECT_EQ(cloud.instanceCount(), 1u);
  const auto& vm = cloud.instance(id);
  EXPECT_TRUE(vm.isActive());
  EXPECT_DOUBLE_EQ(vm.startTime(), 100.0);
  EXPECT_EQ(vm.spec().name, "m1.small");
}

TEST(CloudProvider, IdsAreDenseAndNeverReused) {
  auto cloud = makeCloud();
  const VmId a = cloud.acquire(ResourceClassId(0), 0.0);
  const VmId b = cloud.acquire(ResourceClassId(1), 0.0);
  cloud.release(a, 10.0);
  const VmId c = cloud.acquire(ResourceClassId(0), 20.0);
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(c.value(), 2u);
  EXPECT_EQ(cloud.instanceCount(), 3u);
}

TEST(CloudProvider, ActiveVmsExcludesReleased) {
  auto cloud = makeCloud();
  const VmId a = cloud.acquire(ResourceClassId(0), 0.0);
  const VmId b = cloud.acquire(ResourceClassId(0), 0.0);
  cloud.release(a, 50.0);
  const auto active = cloud.activeVms();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0], b);
}

TEST(CloudProvider, ReleaseWithAllocatedCoresThrows) {
  auto cloud = makeCloud();
  const VmId id = cloud.acquire(ResourceClassId(0), 0.0);
  cloud.allocateCore(id, PeId(1));
  EXPECT_THROW(cloud.release(id, 10.0), PreconditionError);
  cloud.releaseAllCoresOf(id, PeId(1));
  EXPECT_NO_THROW(cloud.release(id, 10.0));
}

TEST(CloudProvider, DoubleReleaseThrows) {
  auto cloud = makeCloud();
  const VmId id = cloud.acquire(ResourceClassId(0), 0.0);
  cloud.release(id, 10.0);
  EXPECT_THROW(cloud.release(id, 20.0), PreconditionError);
}

TEST(CloudProvider, UnknownVmIdThrows) {
  auto cloud = makeCloud();
  EXPECT_THROW((void)cloud.instance(VmId(0)), PreconditionError);
  EXPECT_THROW((void)cloud.instanceCost(VmId(3), 10.0), PreconditionError);
}

// --- billing (paper §4: rounded up to the hour, started hour charged) ---

TEST(Billing, ZeroBeforeAndAtStart) {
  auto cloud = makeCloud();
  const VmId id = cloud.acquire(ResourceClassId(0), 1000.0);
  EXPECT_DOUBLE_EQ(cloud.instanceCost(id, 500.0), 0.0);
  EXPECT_DOUBLE_EQ(cloud.instanceCost(id, 1000.0), 0.0);
  EXPECT_EQ(cloud.billedHours(id, 1000.0), 0);
}

TEST(Billing, PartialHourChargedInFull) {
  auto cloud = makeCloud();
  const VmId id = cloud.acquire(ResourceClassId(0), 0.0);  // $0.06/h
  EXPECT_DOUBLE_EQ(cloud.instanceCost(id, 60.0), 0.06);
  EXPECT_DOUBLE_EQ(cloud.instanceCost(id, 3599.0), 0.06);
}

TEST(Billing, ExactHourBoundaryChargesOneHour) {
  auto cloud = makeCloud();
  const VmId id = cloud.acquire(ResourceClassId(0), 0.0);
  EXPECT_EQ(cloud.billedHours(id, 3600.0), 1);
  EXPECT_EQ(cloud.billedHours(id, 3600.0 + 1.0), 2);
}

TEST(Billing, ReleasedVmStopsAccruing) {
  auto cloud = makeCloud();
  const VmId id = cloud.acquire(ResourceClassId(1), 0.0);  // $0.12/h
  cloud.release(id, 1800.0);
  EXPECT_DOUBLE_EQ(cloud.instanceCost(id, 1800.0), 0.12);
  // Cost is frozen after shutdown even as time advances.
  EXPECT_DOUBLE_EQ(cloud.instanceCost(id, 100000.0), 0.12);
}

TEST(Billing, InstantReleaseIsFree) {
  auto cloud = makeCloud();
  const VmId id = cloud.acquire(ResourceClassId(3), 500.0);
  cloud.release(id, 500.0);
  EXPECT_DOUBLE_EQ(cloud.instanceCost(id, 10000.0), 0.0);
}

TEST(Billing, AccumulatedCostSumsInstances) {
  auto cloud = makeCloud();
  cloud.acquire(ResourceClassId(0), 0.0);      // small  $0.06
  cloud.acquire(ResourceClassId(3), 0.0);      // xlarge $0.48
  const VmId c = cloud.acquire(ResourceClassId(1), 0.0);  // medium $0.12
  cloud.release(c, 10.0);
  // After 90 min: small 2h=0.12, xlarge 2h=0.96, medium 1h=0.12.
  EXPECT_DOUBLE_EQ(cloud.accumulatedCost(5400.0), 0.12 + 0.96 + 0.12);
}

TEST(Billing, TimeToNextHourBoundary) {
  auto cloud = makeCloud();
  const VmId id = cloud.acquire(ResourceClassId(0), 100.0);
  EXPECT_DOUBLE_EQ(cloud.timeToNextHourBoundary(id, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(cloud.timeToNextHourBoundary(id, 160.0), 3540.0);
  EXPECT_DOUBLE_EQ(cloud.timeToNextHourBoundary(id, 100.0 + 3600.0), 0.0);
  EXPECT_DOUBLE_EQ(cloud.timeToNextHourBoundary(id, 100.0 + 3601.0),
                   3599.0);
  EXPECT_THROW((void)cloud.timeToNextHourBoundary(id, 50.0),
               PreconditionError);
}

class BillingMonotoneTest : public ::testing::TestWithParam<double> {};

TEST_P(BillingMonotoneTest, CostIsMonotoneInTime) {
  auto cloud = makeCloud();
  const VmId id = cloud.acquire(ResourceClassId(2), GetParam());
  double prev = 0.0;
  for (double t = GetParam(); t < GetParam() + 6 * 3600.0; t += 137.0) {
    const double c = cloud.instanceCost(id, t);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

INSTANTIATE_TEST_SUITE_P(StartTimes, BillingMonotoneTest,
                         ::testing::Values(0.0, 59.0, 3600.0, 7777.0));

/// Test acquisition-fault model: rejects a fixed set of attempt indices
/// and imposes a fixed provisioning delay.
class ScriptedAcquisitionFaults final : public AcquisitionFaultModel {
 public:
  ScriptedAcquisitionFaults(std::uint64_t reject_below, SimTime delay)
      : reject_below_(reject_below), delay_(delay) {}

  [[nodiscard]] bool acquisitionRejected(
      std::uint64_t attempt) const override {
    return attempt < reject_below_;
  }
  [[nodiscard]] SimTime provisioningDelay(VmId,
                                          const ResourceClass&) const override {
    return delay_;
  }

 private:
  std::uint64_t reject_below_;
  SimTime delay_;
};

TEST(TryAcquire, WithoutFaultModelDeliversInstantly) {
  auto cloud = makeCloud();
  const auto got = cloud.tryAcquire(ResourceClassId(0), 100.0);
  ASSERT_TRUE(got.ok());
  EXPECT_DOUBLE_EQ(got.ready_time, 100.0);
  EXPECT_TRUE(cloud.instance(got.vm).isReady(100.0));
  EXPECT_EQ(cloud.rejectedAcquisitions(), 0u);
}

TEST(TryAcquire, RejectionLeavesNoInstanceBehind) {
  auto cloud = makeCloud();
  const ScriptedAcquisitionFaults faults(/*reject_below=*/2, 0.0);
  cloud.setAcquisitionFaults(&faults);
  EXPECT_FALSE(cloud.tryAcquire(ResourceClassId(0), 0.0).ok());
  EXPECT_FALSE(cloud.tryAcquire(ResourceClassId(0), 0.0).ok());
  EXPECT_EQ(cloud.instanceCount(), 0u);
  EXPECT_EQ(cloud.rejectedAcquisitions(), 2u);
  // Attempt indices are global and monotone: the third succeeds.
  EXPECT_TRUE(cloud.tryAcquire(ResourceClassId(0), 0.0).ok());
  EXPECT_EQ(cloud.instanceCount(), 1u);
}

TEST(TryAcquire, ProvisioningDelaySetsReadyTimeButBillsFromStart) {
  auto cloud = makeCloud();
  const ScriptedAcquisitionFaults faults(0, /*delay=*/300.0);
  cloud.setAcquisitionFaults(&faults);
  const auto got = cloud.tryAcquire(ResourceClassId(0), 100.0);
  ASSERT_TRUE(got.ok());
  EXPECT_DOUBLE_EQ(got.ready_time, 400.0);
  const auto& vm = cloud.instance(got.vm);
  EXPECT_DOUBLE_EQ(vm.readyTime(), 400.0);
  EXPECT_FALSE(vm.isReady(399.0));
  EXPECT_TRUE(vm.isReady(400.0));
  // The clock (and the bill) started at acquisition, not readiness.
  EXPECT_DOUBLE_EQ(vm.startTime(), 100.0);
  EXPECT_GT(cloud.instanceCost(got.vm, 200.0), 0.0);
}

// --- spot billing audit (provider-initiated preemption forgives the
// --- partial started hour; tenant-initiated terminations never do) ---

CloudProvider makeSpotCloud() {
  return CloudProvider(withSpotTier(awsCatalog2013(), 0.7));
}

TEST(SpotBilling, PreemptedMidHourDoesNotBillTheStartedHour) {
  auto cloud = makeSpotCloud();
  // m1.small-spot: $0.06 * 0.3 = $0.018/h.
  const VmId id = cloud.acquire(cloud.catalog().byName("m1.small-spot"), 0.0);
  cloud.preempt(id, 5400.0);  // reclaimed at 1.5 h
  EXPECT_EQ(cloud.billedHours(id, 5400.0), 1);  // not 2: the partial hour
  EXPECT_DOUBLE_EQ(cloud.instanceCost(id, 5400.0), 0.018);
  EXPECT_EQ(cloud.instance(id).terminationReason(),
            TerminationReason::Preempted);
}

TEST(SpotBilling, PreemptedAtExactBoundaryBillsWholeHours) {
  auto cloud = makeSpotCloud();
  const VmId id = cloud.acquire(cloud.catalog().byName("m1.small-spot"), 0.0);
  cloud.preempt(id, 2.0 * 3600.0);
  EXPECT_EQ(cloud.billedHours(id, 2.0 * 3600.0), 2);
}

TEST(SpotBilling, PreemptedInFirstHourIsFree) {
  auto cloud = makeSpotCloud();
  const VmId id = cloud.acquire(cloud.catalog().byName("m1.small-spot"), 0.0);
  cloud.preempt(id, 1800.0);
  EXPECT_EQ(cloud.billedHours(id, 1800.0), 0);
  EXPECT_DOUBLE_EQ(cloud.instanceCost(id, 1800.0), 0.0);
}

TEST(SpotBilling, NoAccrualAfterPreemption) {
  auto cloud = makeSpotCloud();
  const VmId id = cloud.acquire(cloud.catalog().byName("m1.medium-spot"), 0.0);
  cloud.preempt(id, 5400.0);
  const double at_death = cloud.instanceCost(id, 5400.0);
  EXPECT_DOUBLE_EQ(cloud.instanceCost(id, 100000.0), at_death);
  EXPECT_EQ(cloud.billedHours(id, 100000.0),
            cloud.billedHours(id, 5400.0));
}

TEST(SpotBilling, VoluntaryReleaseOfASpotVmStillBillsTheStartedHour) {
  auto cloud = makeSpotCloud();
  // A tenant-initiated drain (e.g. on a preemption notice) forfeits the
  // spot break: the started hour is charged like any on-demand release.
  const VmId id = cloud.acquire(cloud.catalog().byName("m1.small-spot"), 0.0);
  cloud.release(id, 5400.0);
  EXPECT_EQ(cloud.billedHours(id, 5400.0), 2);
  EXPECT_EQ(cloud.instance(id).terminationReason(),
            TerminationReason::Released);
}

TEST(SpotBilling, CrashStillBillsTheStartedHour) {
  auto cloud = makeSpotCloud();
  const VmId id = cloud.acquire(cloud.catalog().byName("m1.small-spot"), 0.0);
  cloud.terminate(id, 5400.0, TerminationReason::Crashed);
  EXPECT_EQ(cloud.billedHours(id, 5400.0), 2);
}

TEST(SpotBilling, PreemptionKillsTheVmUnderItsTenants) {
  auto cloud = makeSpotCloud();
  const VmId id = cloud.acquire(cloud.catalog().byName("m1.large-spot"), 0.0);
  cloud.allocateCore(id, PeId(3));
  // Provider-initiated reclamation does not wait for core releases.
  EXPECT_NO_THROW(cloud.preempt(id, 100.0));
  EXPECT_FALSE(cloud.instance(id).isActive());
}

// --- the provider's preemption-notice API ---

/// Fixed-schedule preemption model: every VM is reclaimed at `at` with a
/// `notice` second warning.
class ScriptedPreemptions final : public PreemptionFaultModel {
 public:
  ScriptedPreemptions(SimTime at, SimTime notice)
      : at_(at), notice_(notice) {}
  [[nodiscard]] SimTime preemptionTime(VmId, SimTime) const override {
    return at_;
  }
  [[nodiscard]] SimTime noticeWindow() const override { return notice_; }

 private:
  SimTime at_;
  SimTime notice_;
};

TEST(PreemptionNotice, NoModelMeansNoPreemptions) {
  auto cloud = makeSpotCloud();
  const VmId id = cloud.acquire(cloud.catalog().byName("m1.small-spot"), 0.0);
  EXPECT_EQ(cloud.preemptionTimeOf(id),
            std::numeric_limits<SimTime>::infinity());
  EXPECT_DOUBLE_EQ(cloud.noticeWindow(), 0.0);
  EXPECT_FALSE(cloud.preemptionImminent(id, 1e9));
}

TEST(PreemptionNotice, OnDemandVmsAreNeverImminent) {
  auto cloud = makeSpotCloud();
  const ScriptedPreemptions model(1000.0, 120.0);
  cloud.setPreemptionModel(&model);
  const VmId od = cloud.acquire(cloud.catalog().byName("m1.small"), 0.0);
  EXPECT_EQ(cloud.preemptionTimeOf(od),
            std::numeric_limits<SimTime>::infinity());
  EXPECT_FALSE(cloud.preemptionImminent(od, 1e9));
}

TEST(PreemptionNotice, ImminentExactlyInsideTheNoticeWindow) {
  auto cloud = makeSpotCloud();
  const ScriptedPreemptions model(1000.0, 120.0);
  cloud.setPreemptionModel(&model);
  const VmId id = cloud.acquire(cloud.catalog().byName("m1.small-spot"), 0.0);
  EXPECT_DOUBLE_EQ(cloud.preemptionTimeOf(id), 1000.0);
  EXPECT_DOUBLE_EQ(cloud.noticeWindow(), 120.0);
  EXPECT_FALSE(cloud.preemptionImminent(id, 879.0));
  EXPECT_TRUE(cloud.preemptionImminent(id, 880.0));  // notice served
  EXPECT_TRUE(cloud.preemptionImminent(id, 1500.0));
}

TEST(TryAcquire, PlainAcquireIsUnaffectedByTheFaultModel) {
  auto cloud = makeCloud();
  const ScriptedAcquisitionFaults faults(~0ull, 300.0);
  cloud.setAcquisitionFaults(&faults);
  // Direct acquire bypasses the control plane's rejections (used by the
  // idealized planners); the VM is ready immediately.
  const VmId id = cloud.acquire(ResourceClassId(0), 50.0);
  EXPECT_TRUE(cloud.instance(id).isReady(50.0));
  EXPECT_EQ(cloud.rejectedAcquisitions(), 0u);
}

// --- the allocation-ledger generation moves exactly on ledger changes ---

TEST(CloudLedger, ReadsDoNotMoveTheGeneration) {
  auto cloud = makeSpotCloud();  // non-const: reads must still not bump
  const ScriptedPreemptions model(1000.0, 120.0);
  cloud.setPreemptionModel(&model);
  const VmId a = cloud.acquire(cloud.catalog().byName("m1.large"), 0.0);
  const VmId b = cloud.acquire(cloud.catalog().byName("m1.small-spot"), 0.0);
  cloud.allocateCore(a, PeId(0));
  cloud.allocateCore(b, PeId(1));
  const std::uint64_t gen = cloud.ledgerGeneration();

  const VmInstance& vm = cloud.instance(a);
  (void)vm.coreOwner(0);
  (void)vm.coresOwnedBy(PeId(0));
  (void)vm.freeCoreCount();
  (void)vm.allocatedCoreCount();
  (void)vm.isActive();
  (void)vm.isReady(10.0);
  (void)cloud.instance(b).spec();
  (void)cloud.catalog();
  (void)cloud.instanceCount();
  (void)cloud.activeVms();
  (void)cloud.instances();
  (void)cloud.instanceCost(a, 10.0);
  (void)cloud.accumulatedCost(10.0);
  (void)cloud.billedHours(b, 10.0);
  (void)cloud.timeToNextHourBoundary(a, 10.0);
  (void)cloud.preemptionTimeOf(b);
  (void)cloud.preemptionImminent(b, 900.0);
  (void)cloud.noticeWindow();
  (void)cloud.rejectedAcquisitions();
  EXPECT_EQ(cloud.ledgerGeneration(), gen);
}

TEST(CloudLedger, EveryMutationMovesTheGeneration) {
  auto cloud = makeCloud();
  std::uint64_t gen = cloud.ledgerGeneration();
  const auto moved = [&cloud, &gen] {
    const bool changed = cloud.ledgerGeneration() != gen;
    gen = cloud.ledgerGeneration();
    return changed;
  };

  const VmId vm = cloud.acquire(ResourceClassId(2), 0.0);  // 2 cores
  EXPECT_TRUE(moved());
  cloud.allocateCore(vm, PeId(0));
  EXPECT_TRUE(moved());
  cloud.allocateCore(vm, PeId(0));
  EXPECT_TRUE(moved());
  cloud.releaseCoreOf(vm, PeId(0));
  EXPECT_TRUE(moved());
  EXPECT_EQ(cloud.releaseAllCoresOf(vm, PeId(1)), 0);  // frees nothing
  EXPECT_FALSE(moved());
  EXPECT_EQ(cloud.releaseAllCoresOf(vm, PeId(0)), 1);
  EXPECT_TRUE(moved());
  cloud.release(vm, 10.0);
  EXPECT_TRUE(moved());

  const ScriptedAcquisitionFaults faults(/*reject_below=*/1, 0.0);
  cloud.setAcquisitionFaults(&faults);
  EXPECT_FALSE(cloud.tryAcquire(ResourceClassId(0), 20.0).ok());
  EXPECT_FALSE(moved());
  const auto got = cloud.tryAcquire(ResourceClassId(0), 20.0);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(moved());
  cloud.preempt(got.vm, 30.0);
  EXPECT_TRUE(moved());

  FaultConfig cfg;
  cfg.vm_mtbf_hours = 1.0;
  const FaultPlan plan(42, cfg, {});
  const VmId doomed = cloud.acquire(ResourceClassId(0), 40.0);
  cloud.allocateCore(doomed, PeId(2));
  (void)moved();
  const SimTime death = plan.deathTime(doomed, 40.0);
  EXPECT_TRUE(plan.injectUpTo(cloud, death - 1.0).empty());
  EXPECT_FALSE(moved());
  ASSERT_EQ(plan.injectUpTo(cloud, death).size(), 1u);
  EXPECT_TRUE(moved());
  EXPECT_FALSE(cloud.instance(doomed).isActive());
}

/// Rejects about a quarter of the attempts and delays the rest by 0, 60 or
/// 120 s, both pure in the attempt / VM index.
class HashedAcquisitionFaults final : public AcquisitionFaultModel {
 public:
  [[nodiscard]] bool acquisitionRejected(
      std::uint64_t attempt) const override {
    return splitmix64(attempt) % 4 == 0;
  }
  [[nodiscard]] SimTime provisioningDelay(
      VmId vm, const ResourceClass&) const override {
    return 60.0 * static_cast<double>(vm.value() % 3);
  }
};

/// The maintained indexes must equal a recount from the raw ledger.
void expectIndexesMatchLedger(const CloudProvider& cloud) {
  std::vector<VmId> active;
  for (const VmInstance& vm : cloud.instances()) {
    if (vm.isActive()) active.push_back(vm.id());
    int owned = 0;
    for (int c = 0; c < vm.coreCount(); ++c) {
      owned += vm.coreOwner(c).has_value() ? 1 : 0;
    }
    ASSERT_EQ(vm.allocatedCoreCount(), owned) << "vm " << vm.id().value();
    ASSERT_EQ(vm.freeCoreCount(), vm.coreCount() - owned)
        << "vm " << vm.id().value();
  }
  ASSERT_EQ(cloud.activeIds(), active);
  ASSERT_EQ(cloud.activeVms(), active);
}

TEST(CloudLedger, ActiveIdsAndCoreCountsTrackEveryMutation) {
  auto cloud = makeSpotCloud();
  const HashedAcquisitionFaults faults;
  const ScriptedPreemptions preemptions(1e9, 120.0);
  cloud.setAcquisitionFaults(&faults);
  cloud.setPreemptionModel(&preemptions);
  const auto classes = static_cast<int>(cloud.catalog().size());
  constexpr int kPes = 6;

  std::mt19937_64 rng(20261017);
  const auto pick = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  const auto randomActive = [&]() -> std::optional<VmId> {
    const auto& ids = cloud.activeIds();
    if (ids.empty()) return std::nullopt;
    return ids[static_cast<std::size_t>(pick(static_cast<int>(ids.size())))];
  };
  const auto randomClass = [&] {
    return ResourceClassId(
        static_cast<ResourceClassId::value_type>(pick(classes)));
  };

  SimTime t = 0.0;
  int ops = 0;
  for (int step = 0; step < 4000; ++step) {
    t += 7.0;
    switch (pick(9)) {
      case 0:
        (void)cloud.acquire(randomClass(), t);
        break;
      case 1:
        (void)cloud.tryAcquire(randomClass(), t);  // may be rejected
        break;
      case 2:
      case 3:
        if (const auto vm = randomActive()) {
          if (cloud.instance(*vm).freeCoreCount() == 0) continue;
          cloud.allocateCore(*vm, PeId(static_cast<PeId::value_type>(
                                      pick(kPes))));
        }
        break;
      case 4:
        if (const auto vm = randomActive()) {
          const VmInstance& inst = cloud.instance(*vm);
          const auto owner = inst.coreOwner(pick(inst.coreCount()));
          if (!owner.has_value()) continue;
          cloud.releaseCoreOf(*vm, *owner);
        }
        break;
      case 5:
        if (const auto vm = randomActive()) {
          (void)cloud.releaseAllCoresOf(
              *vm, PeId(static_cast<PeId::value_type>(pick(kPes))));
        }
        break;
      case 6:
        if (const auto vm = randomActive()) {
          if (cloud.instance(*vm).allocatedCoreCount() > 0) continue;
          cloud.release(*vm, t);
        }
        break;
      case 7:
        if (const auto vm = randomActive()) {
          cloud.terminate(*vm, t, TerminationReason::Crashed);
        }
        break;
      default:
        if (const auto vm = randomActive()) cloud.preempt(*vm, t);
        break;
    }
    ++ops;
    expectIndexesMatchLedger(cloud);
    if (HasFatalFailure()) return;
  }
  // The sequence really exercised the ledger.
  EXPECT_GT(ops, 2000);
  EXPECT_GT(cloud.rejectedAcquisitions(), 0);
  EXPECT_GT(cloud.instanceCount(), 100u);
}

}  // namespace
}  // namespace dds

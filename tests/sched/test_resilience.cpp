#include "dds/sched/resilience.hpp"

#include <gtest/gtest.h>

#include "dds/cloud/resource_class.hpp"
#include "dds/dataflow/standard_graphs.hpp"
#include "dds/sched/allocation.hpp"
#include "dds/trace/trace_replayer.hpp"

namespace dds {
namespace {

/// Perf model for tests: one chosen VM runs at a fixed fraction of rated,
/// everything else is healthy.
class OneSlowVm final : public PerfFaultModel {
 public:
  OneSlowVm(VmId slow, double factor) : slow_(slow), factor_(factor) {}

  [[nodiscard]] double cpuFactor(VmId vm, SimTime, SimTime) const override {
    return vm == slow_ ? factor_ : 1.0;
  }
  [[nodiscard]] bool linkPartitioned(VmId, VmId, SimTime) const override {
    return false;
  }

 private:
  VmId slow_;
  double factor_;
};

/// Acquisition model for tests: rejects the first `n` attempts, accepts
/// the rest; no provisioning delay.
class RejectFirstN final : public AcquisitionFaultModel {
 public:
  explicit RejectFirstN(std::uint64_t n) : n_(n) {}

  [[nodiscard]] bool acquisitionRejected(
      std::uint64_t attempt) const override {
    return attempt < n_;
  }
  [[nodiscard]] SimTime provisioningDelay(VmId,
                                          const ResourceClass&) const override {
    return 0.0;
  }

 private:
  std::uint64_t n_;
};

// The guard smooths with kStragglerAlpha = 0.5 (a VM's first probe seeds
// the EWMA): s_k = 0.5 * ratio_k + 0.5 * s_{k-1}. The expected probe
// indices below carry the EWMA value each probe leaves.
ResilienceConfig quarantineOptions() {
  ResilienceConfig ro;
  ro.quarantine_threshold = 0.5;
  ro.quarantine_probes = 3;
  return ro;
}

TEST(StragglerGuard, QuarantinesAfterKConsecutiveLowProbes) {
  CloudProvider cloud(awsCatalog2013());
  const VmId slow = cloud.acquire(ResourceClassId(0), 0.0);
  const VmId healthy = cloud.acquire(ResourceClassId(0), 0.0);
  TraceReplayer replayer = TraceReplayer::ideal();
  const OneSlowVm faults(slow, 0.3);
  const MonitoringService mon(cloud, replayer, nullptr, &faults);

  StragglerGuard guard(cloud, mon, quarantineOptions());
  // The slow VM's ratio is 0.3 at every probe, so its EWMA stays 0.3; the
  // healthy VM's stays 1.0.
  EXPECT_TRUE(guard.probe(60.0).empty());   // s = 0.3: 1st low probe
  EXPECT_TRUE(guard.probe(120.0).empty());  // s = 0.3: 2nd
  const auto hit = guard.probe(180.0);      // s = 0.3: 3rd crosses the bar
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0], slow);
  EXPECT_TRUE(guard.isQuarantined(slow));
  EXPECT_FALSE(guard.isQuarantined(healthy));
  EXPECT_EQ(guard.quarantineCount(), 1);
  EXPECT_DOUBLE_EQ(guard.smoothedRatio(slow), 0.3);
  EXPECT_DOUBLE_EQ(guard.smoothedRatio(healthy), 1.0);
  // Never reported twice.
  EXPECT_TRUE(guard.probe(240.0).empty());
  EXPECT_EQ(guard.quarantineCount(), 1);
}

/// Perf model whose degradation can be toggled mid-test.
class ToggleSlow final : public PerfFaultModel {
 public:
  double factor = 1.0;

  [[nodiscard]] double cpuFactor(VmId, SimTime, SimTime) const override {
    return factor;
  }
  [[nodiscard]] bool linkPartitioned(VmId, VmId, SimTime) const override {
    return false;
  }
};

TEST(StragglerGuard, RecoveryBeforeKProbesResetsTheCounter) {
  CloudProvider cloud(awsCatalog2013());
  const VmId vm = cloud.acquire(ResourceClassId(0), 0.0);
  TraceReplayer replayer = TraceReplayer::ideal();
  ToggleSlow faults;
  const MonitoringService mon(cloud, replayer, nullptr, &faults);
  StragglerGuard guard(cloud, mon, quarantineOptions());

  // Two low probes, one healthy probe, then low again: the consecutive-low
  // streak restarts, so quarantine needs three fresh low probes.
  faults.factor = 0.3;
  EXPECT_TRUE(guard.probe(60.0).empty());   // s = 0.3: 1st low
  EXPECT_TRUE(guard.probe(120.0).empty());  // s = 0.3: 2nd low
  faults.factor = 1.0;
  EXPECT_TRUE(guard.probe(180.0).empty());  // s = 0.65: streak resets
  faults.factor = 0.3;
  EXPECT_TRUE(guard.probe(240.0).empty());  // s = 0.475: 1st low again
  EXPECT_TRUE(guard.probe(300.0).empty());  // s = 0.3875: 2nd
  EXPECT_EQ(guard.quarantineCount(), 0);
  EXPECT_EQ(guard.probe(360.0).size(), 1u);  // s = 0.34375: 3rd in a row
  EXPECT_DOUBLE_EQ(guard.smoothedRatio(vm), 0.34375);
}

TEST(StragglerGuard, SkipsProvisioningVms) {
  CloudProvider cloud(awsCatalog2013());
  // Give the VM a startup delay via tryAcquire + a delaying model.
  class Delay final : public AcquisitionFaultModel {
   public:
    [[nodiscard]] bool acquisitionRejected(std::uint64_t) const override {
      return false;
    }
    [[nodiscard]] SimTime provisioningDelay(
        VmId, const ResourceClass&) const override {
      return 500.0;
    }
  };
  const Delay delay;
  cloud.setAcquisitionFaults(&delay);
  const auto got = cloud.tryAcquire(ResourceClassId(0), 0.0);
  ASSERT_TRUE(got.ok());
  EXPECT_DOUBLE_EQ(got.ready_time, 500.0);

  TraceReplayer replayer = TraceReplayer::ideal();
  // Observed power is 0 while provisioning — without the ready check the
  // guard would blacklist a VM that is merely booting.
  const MonitoringService mon(cloud, replayer);
  EXPECT_DOUBLE_EQ(mon.observedCorePower(got.vm, 100.0), 0.0);
  StragglerGuard guard(cloud, mon, quarantineOptions());
  EXPECT_TRUE(guard.probe(100.0).empty());
  EXPECT_TRUE(guard.probe(200.0).empty());
  EXPECT_TRUE(guard.probe(300.0).empty());
  EXPECT_EQ(guard.quarantineCount(), 0);
  // Once ready it probes normally (healthy here).
  EXPECT_GT(mon.observedCorePower(got.vm, 600.0), 0.0);
  EXPECT_TRUE(guard.probe(600.0).empty());
}

TEST(ResourceAllocator, FallsBackToAnotherClassOnRejection) {
  const Dataflow df = makeChainDataflow(2, 1);
  CloudProvider cloud(awsCatalog2013());
  const RejectFirstN reject_one(1);
  cloud.setAcquisitionFaults(&reject_one);
  ResourceAllocator alloc(df, cloud, 0.7);

  alloc.ensureMinimumCores(0.0);
  // First attempt (the preferred largest class) was rejected; the
  // fallback bought a cheaper class and placement proceeded.
  EXPECT_EQ(alloc.acquisitionRejections(), 1);
  ASSERT_EQ(cloud.activeVms().size(), 1u);
  const auto& vm = cloud.instance(cloud.activeVms()[0]);
  const auto& largest = cloud.catalog().at(cloud.catalog().largest());
  EXPECT_LT(vm.spec().price_per_hour, largest.price_per_hour);
  EXPECT_FALSE(alloc.acquisitionBackoffActive(0.0));
}

TEST(ResourceAllocator, ExhaustedRetriesArmExponentialBackoff) {
  const Dataflow df = makeChainDataflow(2, 1);
  CloudProvider cloud(awsCatalog2013());
  const RejectFirstN reject_all(~0ull);
  cloud.setAcquisitionFaults(&reject_all);
  ResourceAllocator alloc(df, cloud, 0.7);
  ResilienceConfig ro;
  ro.acquisition_max_retries = 3;
  ro.acquisition_backoff_s = 60.0;
  alloc.setResilience(ro);

  alloc.ensureMinimumCores(0.0);
  EXPECT_TRUE(cloud.activeVms().empty());
  EXPECT_EQ(alloc.acquisitionRejections(), 3);
  // Backoff armed: 60 s after the first unmet need.
  EXPECT_TRUE(alloc.acquisitionBackoffActive(30.0));
  EXPECT_FALSE(alloc.acquisitionBackoffActive(61.0));

  // While backing off no further attempts are made at all.
  alloc.ensureMinimumCores(30.0);
  EXPECT_EQ(alloc.acquisitionRejections(), 3);
  EXPECT_EQ(cloud.rejectedAcquisitions(), 3u);

  // A second unmet need after the window doubles the backoff.
  alloc.ensureMinimumCores(61.0);
  EXPECT_EQ(alloc.acquisitionRejections(), 6);
  EXPECT_TRUE(alloc.acquisitionBackoffActive(61.0 + 100.0));
  EXPECT_FALSE(alloc.acquisitionBackoffActive(61.0 + 121.0));
}

TEST(ResourceAllocator, SuccessResetsTheBackoffStreak) {
  const Dataflow df = makeChainDataflow(2, 1);
  CloudProvider cloud(awsCatalog2013());
  const RejectFirstN reject_three(3);
  cloud.setAcquisitionFaults(&reject_three);
  ResourceAllocator alloc(df, cloud, 0.7);
  ResilienceConfig ro;
  ro.acquisition_max_retries = 3;
  ro.acquisition_backoff_s = 60.0;
  alloc.setResilience(ro);

  // All three attempts rejected; backoff armed.
  alloc.ensureMinimumCores(0.0);
  EXPECT_TRUE(cloud.activeVms().empty());

  // After the window the provider has recovered: acquisition succeeds and
  // the streak resets, so a later failure starts at the base backoff.
  alloc.ensureMinimumCores(120.0);
  EXPECT_FALSE(cloud.activeVms().empty());
  EXPECT_FALSE(alloc.acquisitionBackoffActive(121.0));
}

}  // namespace
}  // namespace dds

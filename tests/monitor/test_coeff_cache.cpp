// CoeffCache is a memoization of MonitoringService's *Sample queries, not
// an approximation: under any query sequence whose times never decrease
// per key, every cached value must be bit-equal to a fresh query. sync()
// frees the pair rows of stopped producers; a freed row is created again
// on its next use.
#include "dds/monitor/coeff_cache.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <utility>

#include "dds/cloud/placement_model.hpp"
#include "dds/common/rng.hpp"

namespace dds {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every odd VM id provisions for 400 s after its acquisition, so its
/// core power is pinned at zero (a window ending at its ready time).
class OddVmsProvisionSlowly final : public AcquisitionFaultModel {
 public:
  [[nodiscard]] bool acquisitionRejected(std::uint64_t) const override {
    return false;
  }
  [[nodiscard]] SimTime provisioningDelay(
      VmId vm, const ResourceClass&) const override {
    return vm.value() % 2 == 1 ? 400.0 : 0.0;
  }
};

/// Straggling and partitions keyed on VM ids and time, so the fault model
/// changes values inside a trace window.
class StripedFaults final : public PerfFaultModel {
 public:
  [[nodiscard]] double cpuFactor(VmId vm, SimTime,
                                 SimTime t) const override {
    const auto step = static_cast<std::uint32_t>(t / 90.0);
    return (vm.value() + step) % 3 == 0 ? 0.4 : 1.0;
  }
  [[nodiscard]] bool linkPartitioned(VmId a, VmId b,
                                     SimTime t) const override {
    const auto step = static_cast<std::uint32_t>(t / 150.0);
    return (a.value() + b.value() + step) % 4 == 0;
  }
};

struct Fixture {
  explicit Fixture(std::uint64_t seed,
                   const PerfFaultModel* faults = nullptr)
      : replayer(TraceReplayer::futureGridLike(seed)),
        placement(4, seed),
        mon(cloud, replayer, &placement, faults) {
    cloud.setAcquisitionFaults(&delays);
    Rng rng(seed);
    for (int i = 0; i < 6; ++i) {
      const auto cls = ResourceClassId(
          static_cast<std::uint32_t>(rng.uniformInt(0, 3)));
      EXPECT_TRUE(cloud.tryAcquire(cls, 0.0).ok());
    }
  }

  OddVmsProvisionSlowly delays;
  CloudProvider cloud{awsCatalog2013()};
  TraceReplayer replayer;
  PlacementModel placement;
  MonitoringService mon;
};

/// Issues `queries` seeded lookups through a synced cache — core power of
/// a random VM or bandwidth of a random directional pair — each at a time
/// that never decreases per key: a repeat, a step inside the 300 s trace
/// period, or a jump across several periods. `check` sees each cached
/// slot beside the fresh query at the same time.
template <class Check>
void replayQueries(Fixture& f, std::uint64_t seed, int queries, Check check) {
  CoeffCache cache(f.mon);
  cache.sync(f.cloud);
  const auto n = static_cast<std::int64_t>(f.cloud.instanceCount());
  Rng rng(seed ^ 0xc0ffeeull);
  std::map<std::pair<std::int64_t, std::int64_t>, SimTime> clock;
  for (int q = 0; q < queries; ++q) {
    const std::int64_t a = rng.uniformInt(0, n - 1);
    std::int64_t b = rng.uniformInt(-1, n - 2);  // -1: core power of a
    if (b >= a) ++b;
    SimTime& t = clock[{a, b}];
    switch (rng.uniformInt(0, 2)) {
      case 0:
        break;
      case 1:
        t += rng.uniform(0.0, 60.0);
        break;
      default:
        t += rng.uniform(0.0, 900.0);
        break;
    }
    const auto va = static_cast<std::uint32_t>(a);
    if (b < 0) {
      check(cache.corePower(va, t),
            f.mon.observedCorePowerSample(VmId(va), t), t);
    } else {
      const auto vb = static_cast<std::uint32_t>(b);
      check(cache.bandwidth(cache.pairSlot(va, vb), t),
            f.mon.observedBandwidthSample(VmId(va), VmId(vb), t), t);
    }
  }
}

TEST(CoeffCache, CachedValuesBitEqualFreshQueries) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Fixture f(seed);
    int open_windows = 0;
    replayQueries(f, seed, 3000,
                  [&](const CoeffSample& got, const CoeffSample& want,
                      SimTime t) {
                    ASSERT_EQ(bits(got.value), bits(want.value))
                        << "seed " << seed << " t " << t;
                    ASSERT_LT(t, got.valid_until) << "seed " << seed;
                    if (got.valid_until > t + 1.0) ++open_windows;
                  });
    // Without a fault model most queries land inside a cached window.
    EXPECT_GT(open_windows, 1500) << "seed " << seed;
  }
}

TEST(CoeffCache, FaultModelCollapsesEveryWindowToTheQueryTime) {
  const StripedFaults faults;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Fixture f(seed, &faults);
    int checked = 0;
    replayQueries(f, seed, 2000,
                  [&](const CoeffSample& got, const CoeffSample& want,
                      SimTime t) {
                    // A provisioning VM's zero-power window ends at its
                    // ready time even under a fault model.
                    if (t < 400.0) return;
                    ++checked;
                    ASSERT_EQ(bits(got.value), bits(want.value))
                        << "seed " << seed << " t " << t;
                    ASSERT_EQ(got.valid_until, t) << "seed " << seed;
                    ASSERT_EQ(want.valid_until, t) << "seed " << seed;
                  });
    EXPECT_GT(checked, 1000) << "seed " << seed;
  }
}

TEST(CoeffCache, PairSlotsAreDirectionalAndStable) {
  Fixture f(3);
  CoeffCache cache(f.mon);
  cache.sync(f.cloud);
  const std::uint32_t ab = cache.pairSlot(0, 2);
  const std::uint32_t ba = cache.pairSlot(2, 0);
  EXPECT_NE(ab, ba);
  EXPECT_EQ(cache.pairSlot(0, 2), ab);
  EXPECT_EQ(cache.pairSlot(2, 0), ba);
}

TEST(CoeffCache, SyncFreesStoppedProducersRowsAndTheyComeBack) {
  Fixture f(5);
  CoeffCache cache(f.mon);
  cache.sync(f.cloud);
  EXPECT_EQ(cache.pairSlotTableEntries(), 0u);
  (void)cache.pairSlot(0, 5);
  (void)cache.pairSlot(2, 5);
  const std::size_t two_rows = cache.pairSlotTableEntries();
  EXPECT_GE(two_rows, 12u);

  f.cloud.release(VmId(0), 600.0);
  cache.sync(f.cloud);
  const std::size_t one_row = cache.pairSlotTableEntries();
  EXPECT_LT(one_row, two_rows);
  EXPECT_GE(one_row, 6u);

  // A completion still in flight on the stopped VM routes once more: its
  // row is created again, and the new slot reads the same values.
  const std::uint32_t again = cache.pairSlot(0, 5);
  EXPECT_EQ(cache.pairSlotTableEntries(), two_rows);
  EXPECT_EQ(bits(cache.bandwidth(again, 700.0).value),
            bits(f.mon.observedBandwidthSample(VmId(0), VmId(5), 700.0)
                     .value));
  cache.sync(f.cloud);
  EXPECT_EQ(cache.pairSlotTableEntries(), one_row);

  // VMs acquired later extend the per-VM arrays at the next sync.
  const VmId fresh = f.cloud.acquire(ResourceClassId(0), 700.0);
  cache.sync(f.cloud);
  EXPECT_EQ(bits(cache.corePower(fresh.value(), 800.0).value),
            bits(f.mon.observedCorePowerSample(fresh, 800.0).value));
  (void)cache.pairSlot(fresh.value(), 2);
  EXPECT_GT(cache.pairSlotTableEntries(), one_row);
}

}  // namespace
}  // namespace dds

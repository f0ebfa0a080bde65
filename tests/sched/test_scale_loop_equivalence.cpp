// ResourceAllocator::scaleOut / scaleIn against the full-recompute
// reference in naive_scale.hpp: on identical clouds both must leave the
// same owner on every core, acquire the same classes in the same order
// and report the same migrations, across random layered graphs, the m1
// catalog with and without its spot tier, both scopes, expected and
// measured arrivals, and power functions mixing degraded VMs with VMs
// still provisioning (planned at rated power).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "dds/common/rng.hpp"
#include "dds/dataflow/standard_graphs.hpp"
#include "dds/sched/allocation.hpp"
#include "dds/sim/rate_model.hpp"
#include "sched/naive_scale.hpp"

namespace dds {
namespace {

constexpr int kSeedsPerCell = 64;
constexpr double kOmegaTarget = 0.8;

/// Rejects about one attempt in five and delays accepted VMs by 0, 90 or
/// 240 s, pure in (seed, attempt) and (seed, VM).
class HashedFaults final : public AcquisitionFaultModel {
 public:
  explicit HashedFaults(std::uint64_t seed) : seed_(seed) {}
  [[nodiscard]] bool acquisitionRejected(
      std::uint64_t attempt) const override {
    return splitmix64(seed_ ^ splitmix64(attempt)) % 5 == 0;
  }
  [[nodiscard]] SimTime provisioningDelay(
      VmId vm, const ResourceClass&) const override {
    static constexpr SimTime kDelays[] = {0.0, 90.0, 240.0};
    return kDelays[splitmix64(seed_ + vm.value()) % 3];
  }

 private:
  std::uint64_t seed_;
};

/// Observed per-core power as the runtime scheduler plans it: a VM still
/// provisioning counts at rated speed, about half of the ready VMs run
/// degraded to an irregular fraction of rated.
CorePowerFn degradedPower(const CloudProvider& cloud, std::uint64_t seed,
                          SimTime now) {
  return [&cloud, seed, now](VmId vm) {
    const VmInstance& inst = cloud.instance(vm);
    const double rated = inst.spec().core_speed;
    if (!inst.isReady(now)) return rated;
    const double u = hashToUnitInterval(splitmix64(seed ^ (vm.value() << 8)));
    return u < 0.5 ? rated : rated * (0.3 + 0.65 * u);
  };
}

/// A layered graph whose PEs are twins within each layer: one shared
/// alternate menu per layer and complete bipartite wiring, so a layer's
/// PEs see equal demand. Equal demand makes exact ties in the greedy's
/// comparisons common, and a tie is broken by the last bit of each PE's
/// power sum — the case a per-core +/- update of that sum gets wrong.
Dataflow makeTwinLayeredDataflow(std::size_t layers, std::size_t width,
                                 Rng& rng) {
  DataflowBuilder b("twin-layered");
  std::vector<std::vector<PeId>> ids(layers);
  for (std::size_t l = 0; l < layers; ++l) {
    const std::size_t w = (l == 0 || l + 1 == layers) ? 1 : width;
    const std::vector<Alternate> menu = {
        {"a0", rng.uniform(0.4, 1.0), rng.uniform(0.05, 0.4), 1.0},
        {"a1", rng.uniform(0.4, 1.0), rng.uniform(0.05, 0.4), 1.0}};
    for (std::size_t i = 0; i < w; ++i) {
      ids[l].push_back(b.addPe(
          "pe-l" + std::to_string(l) + "-" + std::to_string(i), menu));
    }
  }
  for (std::size_t l = 0; l + 1 < layers; ++l) {
    for (const PeId u : ids[l]) {
      for (const PeId v : ids[l + 1]) b.addEdge(u, v);
    }
  }
  return std::move(b).build();
}

/// The same starting ledger on each cloud: a few VMs with random tenants,
/// one of them crashed under its tenants (its owners stay on a stopped VM).
void seedLedger(CloudProvider& cloud, const Dataflow& df, Rng rng) {
  const auto classes = static_cast<std::int64_t>(cloud.catalog().size());
  const auto vms = rng.uniformInt(1, 4);
  for (std::int64_t i = 0; i < vms; ++i) {
    const VmId vm = cloud.acquire(
        ResourceClassId(static_cast<ResourceClassId::value_type>(
            rng.uniformInt(0, classes - 1))),
        0.0);
    const auto used = rng.uniformInt(0, cloud.instance(vm).coreCount());
    for (std::int64_t c = 0; c < used; ++c) {
      cloud.allocateCore(vm, PeId(static_cast<PeId::value_type>(rng.uniformInt(
                                 0, static_cast<std::int64_t>(df.peCount()) -
                                        1))));
    }
  }
  if (vms > 1 && rng.uniform(0.0, 1.0) < 0.5) {
    cloud.terminate(VmId(0), 0.0, TerminationReason::Crashed);
  }
}

void expectSameLedger(const CloudProvider& fast, const CloudProvider& naive) {
  ASSERT_EQ(fast.instanceCount(), naive.instanceCount());
  ASSERT_EQ(fast.rejectedAcquisitions(), naive.rejectedAcquisitions());
  for (std::size_t i = 0; i < fast.instanceCount(); ++i) {
    const VmId id(static_cast<VmId::value_type>(i));
    const VmInstance& a = fast.instance(id);
    const VmInstance& b = naive.instance(id);
    ASSERT_EQ(a.classId(), b.classId()) << "vm " << i;
    ASSERT_EQ(a.startTime(), b.startTime()) << "vm " << i;
    ASSERT_EQ(a.readyTime(), b.readyTime()) << "vm " << i;
    ASSERT_EQ(a.isActive(), b.isActive()) << "vm " << i;
    for (int c = 0; c < a.coreCount(); ++c) {
      ASSERT_EQ(a.coreOwner(c), b.coreOwner(c)) << "vm " << i << " core " << c;
    }
  }
}

void expectSameMigrations(const std::vector<MigrationEvent>& fast,
                          const std::vector<MigrationEvent>& naive) {
  ASSERT_EQ(fast.size(), naive.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].pe, naive[i].pe) << "migration " << i;
    EXPECT_EQ(fast[i].backlog_fraction, naive[i].backlog_fraction)
        << "migration " << i;
  }
}

/// One case: four scale-out / scale-in rounds at random rates on a random
/// layered graph, product and reference side by side. Returns the number
/// of VMs acquired, so the cell can check it exercised acquisition.
std::size_t runCase(bool spot, Strategy scope, bool measured,
                    std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  Rng rng(seed * 7919 + (spot ? 1 : 0) + (scope == Strategy::Global ? 2 : 0) +
          (measured ? 4 : 0));
  // Odd seeds use twin layers, one active alternate everywhere and one
  // demand-noise factor per round, so a layer's PEs stay tied.
  const bool twins = seed % 2 == 1;
  const std::size_t layers = 3 + seed % 3;
  const std::size_t width = 2 + (seed / 3) % 3;
  const Dataflow df = twins ? makeTwinLayeredDataflow(layers, width, rng)
                            : makeLayeredDataflow(layers, width, 2, rng);
  Deployment dep(df);
  const auto twin_alt = rng.uniformInt(0, 1);
  for (const auto& pe : df.pes()) {
    const auto alt = twins ? twin_alt : rng.uniformInt(0, 1);
    dep.setActiveAlternate(
        pe.id(), AlternateId(static_cast<AlternateId::value_type>(alt)));
  }
  const auto catalog = std::make_shared<const ResourceCatalog>(
      spot ? withSpotTier(awsCatalog2013(), 0.7) : awsCatalog2013());
  const HashedFaults faults(seed);
  CloudProvider fast_cloud(catalog);
  CloudProvider naive_cloud(catalog);
  fast_cloud.setAcquisitionFaults(&faults);
  naive_cloud.setAcquisitionFaults(&faults);
  const std::uint64_t ledger_seed = rng.next();
  seedLedger(fast_cloud, df, Rng(ledger_seed));
  seedLedger(naive_cloud, df, Rng(ledger_seed));

  const auto policy = seed % 2 == 0
                          ? ResourceAllocator::AcquisitionPolicy::LargestFirst
                          : ResourceAllocator::AcquisitionPolicy::CheapestPower;
  ResourceAllocator fast(df, fast_cloud, kOmegaTarget, policy);
  testing::NaiveScaleAllocator naive(df, naive_cloud, kOmegaTarget, policy);
  if (spot) {
    fast.setSpotPreference(0.5, seed);
    naive.setSpotPreference(0.5, seed);
  }

  for (int round = 0; round < 4; ++round) {
    const SimTime now = 150.0 * round;
    const double rate = rng.uniform(2.0, 14.0);
    std::vector<double> arrivals;
    const std::vector<double>* arrivals_ptr = nullptr;
    if (measured) {
      arrivals = expectedArrivalRates(df, dep, rate);
      const double shared = rng.uniform(0.6, 1.4);
      for (double& a : arrivals) a *= twins ? shared : rng.uniform(0.6, 1.4);
      arrivals_ptr = &arrivals;
    }
    fast.scaleOut(dep, rate, degradedPower(fast_cloud, seed, now), now,
                  scope, -1.0, arrivals_ptr);
    naive.scaleOut(dep, rate, degradedPower(naive_cloud, seed, now), now,
                   scope, -1.0, arrivals_ptr);
    expectSameLedger(fast_cloud, naive_cloud);
    if (::testing::Test::HasFatalFailure()) return 0;

    const double shed_rate = rate * rng.uniform(0.3, 0.9);
    if (measured) {
      for (double& a : arrivals) a *= shed_rate / rate;
    }
    const double floor = kOmegaTarget + 0.05;
    expectSameMigrations(
        fast.scaleIn(dep, shed_rate, degradedPower(fast_cloud, seed, now),
                     scope, floor, arrivals_ptr, now),
        naive.scaleIn(dep, shed_rate, degradedPower(naive_cloud, seed, now),
                      scope, floor, arrivals_ptr));
    expectSameLedger(fast_cloud, naive_cloud);
    if (::testing::Test::HasFatalFailure()) return 0;
  }
  EXPECT_EQ(fast.acquisitionRejections(), naive.acquisitionRejections());
  return fast_cloud.instanceCount();
}

void runCell(bool spot, Strategy scope, bool measured) {
  std::size_t acquired = 0;
  for (std::uint64_t seed = 0; seed < kSeedsPerCell; ++seed) {
    acquired += runCase(spot, scope, measured, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The cell grew the clouds well past their seeded VMs.
  EXPECT_GT(acquired, static_cast<std::size_t>(8 * kSeedsPerCell));
}

TEST(ScaleLoopEquivalence, OnDemandGlobalExpected) {
  runCell(false, Strategy::Global, false);
}
TEST(ScaleLoopEquivalence, OnDemandGlobalMeasured) {
  runCell(false, Strategy::Global, true);
}
TEST(ScaleLoopEquivalence, OnDemandLocalExpected) {
  runCell(false, Strategy::Local, false);
}
TEST(ScaleLoopEquivalence, OnDemandLocalMeasured) {
  runCell(false, Strategy::Local, true);
}
TEST(ScaleLoopEquivalence, SpotGlobalExpected) {
  runCell(true, Strategy::Global, false);
}
TEST(ScaleLoopEquivalence, SpotGlobalMeasured) {
  runCell(true, Strategy::Global, true);
}
TEST(ScaleLoopEquivalence, SpotLocalExpected) {
  runCell(true, Strategy::Local, false);
}
TEST(ScaleLoopEquivalence, SpotLocalMeasured) {
  runCell(true, Strategy::Local, true);
}

}  // namespace
}  // namespace dds

#include "dds/sched/allocation.hpp"

#include <gtest/gtest.h>

#include "dds/dataflow/standard_graphs.hpp"
#include "dds/sim/rate_model.hpp"

namespace dds {
namespace {

struct Fixture {
  explicit Fixture(Dataflow graph) : df(std::move(graph)) {}
  Dataflow df;
  CloudProvider cloud{awsCatalog2013()};
  TraceReplayer replayer = TraceReplayer::ideal();
  MonitoringService mon{cloud, replayer};

  CorePowerFn rated() { return ratedCorePowerFn(cloud); }
};

// ---- projectThroughput ----

TEST(ProjectThroughput, ZeroPowerGivesZeroOmega) {
  Fixture f(makePaperDataflow());
  const Deployment dep(f.df);
  const std::vector<double> none(4, 0.0);
  const auto proj = projectThroughput(f.df, dep, 10.0, none);
  EXPECT_DOUBLE_EQ(proj.omega, 0.0);
}

TEST(ProjectThroughput, AmplePowerGivesUnitOmega) {
  Fixture f(makePaperDataflow());
  const Deployment dep(f.df);
  const std::vector<double> plenty(4, 1000.0);
  const auto proj = projectThroughput(f.df, dep, 10.0, plenty);
  EXPECT_DOUBLE_EQ(proj.omega, 1.0);
  for (const double o : proj.pe_omega) EXPECT_DOUBLE_EQ(o, 1.0);
}

TEST(ProjectThroughput, ExactDemandGivesUnitOmega) {
  Fixture f(makePaperDataflow());
  const Deployment dep(f.df);
  const auto demand = requiredCorePower(f.df, dep, 10.0);
  const auto proj = projectThroughput(f.df, dep, 10.0, demand);
  EXPECT_NEAR(proj.omega, 1.0, 1e-9);
}

TEST(ProjectThroughput, UpstreamThrottleLowersAppOmega) {
  Fixture f(makePaperDataflow());
  const Deployment dep(f.df);
  auto power = requiredCorePower(f.df, dep, 10.0);
  power[0] *= 0.5;  // halve the input PE's capacity
  const auto proj = projectThroughput(f.df, dep, 10.0, power);
  EXPECT_NEAR(proj.omega, 0.5, 1e-9);
  EXPECT_NEAR(proj.pe_omega[0], 0.5, 1e-9);
  // Downstream PEs are sized for the full rate, so their own ratios are 1.
  EXPECT_DOUBLE_EQ(proj.pe_omega[1], 1.0);
}

TEST(ProjectThroughput, ZeroRateIsTriviallySatisfied) {
  Fixture f(makePaperDataflow());
  const Deployment dep(f.df);
  const std::vector<double> none(4, 0.0);
  const auto proj = projectThroughput(f.df, dep, 0.0, none);
  EXPECT_DOUBLE_EQ(proj.omega, 1.0);
}

TEST(ProjectThroughput, RequiredPowerVectorExposed) {
  Fixture f(makePaperDataflow());
  const Deployment dep(f.df);
  const std::vector<double> plenty(4, 1000.0);
  const auto proj = projectThroughput(f.df, dep, 10.0, plenty);
  const auto expected = requiredCorePower(f.df, dep, 10.0);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(proj.required_power[i], expected[i]);
  }
}

TEST(ProjectThroughput, RejectsMismatchedPowerVector) {
  Fixture f(makePaperDataflow());
  const Deployment dep(f.df);
  EXPECT_THROW(
      (void)projectThroughput(f.df, dep, 1.0, std::vector<double>(2, 1.0)),
      PreconditionError);
}

// ---- ResourceAllocator basics ----

TEST(Allocator, EnsureMinimumCoresGivesEveryPeACore) {
  Fixture f(makePaperDataflow());
  ResourceAllocator alloc(f.df, f.cloud, 0.7);
  alloc.ensureMinimumCores(0.0);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_GE(totalCores(f.cloud, PeId(i)), 1) << "PE " << i;
  }
  // Four PEs fit on a single 4-core xlarge thanks to the lastVM policy.
  EXPECT_EQ(f.cloud.activeVms().size(), 1u);
}

TEST(Allocator, EnsureMinimumCoresColocatesNeighbors) {
  Fixture f(makeChainDataflow(4, 1));
  ResourceAllocator alloc(f.df, f.cloud, 0.7);
  alloc.ensureMinimumCores(0.0);
  // All four chain stages share the one xlarge.
  EXPECT_TRUE(areColocated(f.cloud, PeId(0), PeId(1)));
  EXPECT_TRUE(areColocated(f.cloud, PeId(2), PeId(3)));
}

TEST(Allocator, EnsureMinimumCoresIsIdempotent) {
  Fixture f(makePaperDataflow());
  ResourceAllocator alloc(f.df, f.cloud, 0.7);
  alloc.ensureMinimumCores(0.0);
  const int before = totalAllocatedCores(f.cloud);
  alloc.ensureMinimumCores(0.0);
  EXPECT_EQ(totalAllocatedCores(f.cloud), before);
}

TEST(Allocator, AllocatedPowerByPe) {
  Fixture f(makePaperDataflow());
  const VmId xl = f.cloud.acquire(ResourceClassId(3), 0.0);
  f.cloud.allocateCore(xl, PeId(1));
  f.cloud.allocateCore(xl, PeId(1));
  ResourceAllocator alloc(f.df, f.cloud, 0.7);
  const auto pw = alloc.allocatedPower(f.rated());
  EXPECT_DOUBLE_EQ(pw[1], 4.0);
  EXPECT_DOUBLE_EQ(pw[0], 0.0);
}

// ---- scaleOut ----

TEST(Allocator, ScaleOutMeetsGlobalTarget) {
  Fixture f(makePaperDataflow());
  Deployment dep(f.df);
  ResourceAllocator alloc(f.df, f.cloud, 0.7);
  alloc.ensureMinimumCores(0.0);
  alloc.scaleOut(dep, 20.0, f.rated(), 0.0, Strategy::Global);
  const auto proj =
      projectThroughput(f.df, dep, 20.0, alloc.allocatedPower(f.rated()));
  EXPECT_GE(proj.omega, 0.7 - 1e-9);
}

TEST(Allocator, ScaleOutLocalMeetsEveryPeTarget) {
  Fixture f(makePaperDataflow());
  Deployment dep(f.df);
  ResourceAllocator alloc(f.df, f.cloud, 0.7);
  alloc.ensureMinimumCores(0.0);
  alloc.scaleOut(dep, 20.0, f.rated(), 0.0, Strategy::Local);
  const auto proj =
      projectThroughput(f.df, dep, 20.0, alloc.allocatedPower(f.rated()));
  for (const double o : proj.pe_omega) EXPECT_GE(o, 0.7 - 1e-9);
}

TEST(Allocator, LocalScopeNeverUsesFewerCoresThanGlobal) {
  // Local satisfies every per-PE ratio, which implies the global app-level
  // condition; so local allocations dominate global ones.
  for (const double rate : {5.0, 10.0, 30.0, 50.0}) {
    Fixture fl(makePaperDataflow());
    Deployment dl(fl.df);
    ResourceAllocator al(fl.df, fl.cloud, 0.7);
    al.ensureMinimumCores(0.0);
    al.scaleOut(dl, rate, ratedCorePowerFn(fl.cloud), 0.0, Strategy::Local);

    Fixture fg(makePaperDataflow());
    Deployment dg(fg.df);
    ResourceAllocator ag(fg.df, fg.cloud, 0.7);
    ag.ensureMinimumCores(0.0);
    ag.scaleOut(dg, rate, ratedCorePowerFn(fg.cloud), 0.0,
                Strategy::Global);

    EXPECT_GE(totalAllocatedCores(fl.cloud), totalAllocatedCores(fg.cloud))
        << "rate " << rate;
  }
}

TEST(Allocator, ScaleOutIsNoOpWhenAlreadySatisfied) {
  Fixture f(makePaperDataflow());
  Deployment dep(f.df);
  ResourceAllocator alloc(f.df, f.cloud, 0.7);
  alloc.ensureMinimumCores(0.0);
  alloc.scaleOut(dep, 2.0, f.rated(), 0.0, Strategy::Global);
  const int cores = totalAllocatedCores(f.cloud);
  alloc.scaleOut(dep, 2.0, f.rated(), 0.0, Strategy::Global);
  EXPECT_EQ(totalAllocatedCores(f.cloud), cores);
}

TEST(Allocator, ScaleOutHandlesHighRates) {
  Fixture f(makePaperDataflow());
  Deployment dep(f.df);
  ResourceAllocator alloc(f.df, f.cloud, 0.7);
  alloc.ensureMinimumCores(0.0);
  alloc.scaleOut(dep, 50.0, f.rated(), 0.0, Strategy::Global);
  const auto proj =
      projectThroughput(f.df, dep, 50.0, alloc.allocatedPower(f.rated()));
  EXPECT_GE(proj.omega, 0.7 - 1e-9);
  // Sanity: the demand at 50 msg/s with accurate alternates is ~1450
  // standard units, so ~500 speed-2 cores at the 0.7 target (the paper's
  // "100's of VMs" regime) — not thousands.
  EXPECT_LT(totalAllocatedCores(f.cloud), 700);
  EXPECT_GT(totalAllocatedCores(f.cloud), 300);
}

// ---- scaleIn ----

TEST(Allocator, ScaleInRemovesSurplusButKeepsConstraint) {
  Fixture f(makePaperDataflow());
  Deployment dep(f.df);
  ResourceAllocator alloc(f.df, f.cloud, 0.7);
  alloc.ensureMinimumCores(0.0);
  alloc.scaleOut(dep, 40.0, f.rated(), 0.0, Strategy::Global);
  const int provisioned = totalAllocatedCores(f.cloud);
  // The rate drops to a fifth; most cores are now surplus.
  (void)alloc.scaleIn(dep, 8.0, f.rated(), Strategy::Global, 0.7);
  EXPECT_LT(totalAllocatedCores(f.cloud), provisioned);
  const auto proj =
      projectThroughput(f.df, dep, 8.0, alloc.allocatedPower(f.rated()));
  EXPECT_GE(proj.omega, 0.7 - 1e-9);
}

TEST(Allocator, ScaleInNeverDropsBelowOneCorePerPe) {
  Fixture f(makePaperDataflow());
  Deployment dep(f.df);
  ResourceAllocator alloc(f.df, f.cloud, 0.7);
  alloc.ensureMinimumCores(0.0);
  alloc.scaleOut(dep, 30.0, f.rated(), 0.0, Strategy::Global);
  (void)alloc.scaleIn(dep, 0.0, f.rated(), Strategy::Global, 0.7);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_GE(totalCores(f.cloud, PeId(i)), 1);
  }
}

TEST(Allocator, ScaleInReportsMigrationsWhenPeLeavesVm) {
  Fixture f(makePaperDataflow());
  Deployment dep(f.df);
  ResourceAllocator alloc(f.df, f.cloud, 0.7);
  alloc.ensureMinimumCores(0.0);
  alloc.scaleOut(dep, 50.0, f.rated(), 0.0, Strategy::Global);
  const auto migrations =
      alloc.scaleIn(dep, 2.0, f.rated(), Strategy::Global, 0.7);
  for (const auto& ev : migrations) {
    EXPECT_GT(ev.backlog_fraction, 0.0);
    EXPECT_LE(ev.backlog_fraction, 1.0);
    EXPECT_LT(ev.pe.value(), 4u);
  }
}

TEST(Allocator, ScaleInLocalKeepsPerPeFloor) {
  Fixture f(makePaperDataflow());
  Deployment dep(f.df);
  ResourceAllocator alloc(f.df, f.cloud, 0.7);
  alloc.ensureMinimumCores(0.0);
  alloc.scaleOut(dep, 40.0, f.rated(), 0.0, Strategy::Local);
  (void)alloc.scaleIn(dep, 10.0, f.rated(), Strategy::Local, 0.7);
  const auto proj =
      projectThroughput(f.df, dep, 10.0, alloc.allocatedPower(f.rated()));
  for (const double o : proj.pe_omega) EXPECT_GE(o, 0.7 - 1e-9);
}

// ---- repacking ----

TEST(Allocator, RepackFreeVmsConsolidatesSparseVms) {
  Fixture f(makePaperDataflow());
  // Two xlarges each one core used: repacking should empty one of them.
  const VmId a = f.cloud.acquire(ResourceClassId(3), 0.0);
  const VmId b = f.cloud.acquire(ResourceClassId(3), 0.0);
  f.cloud.allocateCore(a, PeId(0));
  f.cloud.allocateCore(b, PeId(1));
  ResourceAllocator alloc(f.df, f.cloud, 0.7);
  alloc.repackFreeVms();
  const int empties =
      (f.cloud.instance(a).allocatedCoreCount() == 0 ? 1 : 0) +
      (f.cloud.instance(b).allocatedCoreCount() == 0 ? 1 : 0);
  EXPECT_EQ(empties, 1);
  // Capacity preserved: both PEs still hold one core each.
  EXPECT_EQ(totalCores(f.cloud, PeId(0)), 1);
  EXPECT_EQ(totalCores(f.cloud, PeId(1)), 1);
}

TEST(Allocator, RepackFreeVmsNeverMovesToSlowerCores) {
  CloudProvider cloud(ResourceCatalog({
      {"slow", 4, 1.0, 100.0, 0.2},
      {"fast", 4, 2.0, 100.0, 0.5},
  }));
  TraceReplayer replayer = TraceReplayer::ideal();
  MonitoringService mon(cloud, replayer);
  const Dataflow df = makePaperDataflow();
  // One core used on the fast VM, plenty free on the slow VM.
  const VmId fast = cloud.acquire(ResourceClassId(1), 0.0);
  const VmId slow = cloud.acquire(ResourceClassId(0), 0.0);
  cloud.allocateCore(fast, PeId(0));
  cloud.allocateCore(slow, PeId(1));
  ResourceAllocator alloc(df, cloud, 0.7);
  alloc.repackFreeVms();
  // The fast VM's core must not migrate onto slower cores (capacity drop);
  // the slow VM's core may migrate to the fast VM.
  EXPECT_EQ(cloud.instance(fast).coresOwnedBy(PeId(0)), 1);
  EXPECT_EQ(cloud.instance(slow).allocatedCoreCount(), 0);
  EXPECT_EQ(cloud.instance(fast).coresOwnedBy(PeId(1)), 1);
}

TEST(Allocator, RepackPesMovesSoleTenantToCheaperClass) {
  Fixture f(makePaperDataflow());
  // PE 0 needs 0.8 power at 0.4 msg/s but sits alone on an xlarge.
  const VmId xl = f.cloud.acquire(ResourceClassId(3), 0.0);
  f.cloud.allocateCore(xl, PeId(0));
  Deployment dep(f.df);
  ResourceAllocator alloc(f.df, f.cloud, 0.7);
  alloc.repackPes(dep, 0.4, f.rated(), 0.0);
  alloc.releaseEmptyVms(ResourceAllocator::ReleasePolicy::Immediate, 0.0,
                        60.0);
  // It should now live on an m1.small ($0.06) instead of xlarge ($0.48).
  const auto cores = peCores(f.cloud, PeId(0));
  ASSERT_EQ(cores.size(), 1u);
  EXPECT_EQ(f.cloud.instance(cores[0].vm).spec().name, "m1.small");
}

TEST(Allocator, RepackPesLeavesSharedVmsAlone) {
  Fixture f(makePaperDataflow());
  const VmId xl = f.cloud.acquire(ResourceClassId(3), 0.0);
  f.cloud.allocateCore(xl, PeId(0));
  f.cloud.allocateCore(xl, PeId(1));
  Deployment dep(f.df);
  ResourceAllocator alloc(f.df, f.cloud, 0.7);
  alloc.repackPes(dep, 5.0, f.rated(), 0.0);
  // Both PEs share the VM: neither is a sole tenant, nothing moves.
  EXPECT_EQ(f.cloud.instance(xl).allocatedCoreCount(), 2);
}

// ---- releaseEmptyVms ----

TEST(Allocator, ReleaseEmptyVmsImmediate) {
  Fixture f(makePaperDataflow());
  const VmId a = f.cloud.acquire(ResourceClassId(0), 0.0);
  const VmId b = f.cloud.acquire(ResourceClassId(0), 0.0);
  f.cloud.allocateCore(b, PeId(0));
  ResourceAllocator alloc(f.df, f.cloud, 0.7);
  const int released = alloc.releaseEmptyVms(
      ResourceAllocator::ReleasePolicy::Immediate, 120.0, 60.0);
  EXPECT_EQ(released, 1);
  EXPECT_FALSE(f.cloud.instance(a).isActive());
  EXPECT_TRUE(f.cloud.instance(b).isActive());
}

// ---- spot preference ----

struct SpotFixture {
  explicit SpotFixture(double discount = 0.7)
      : df(makePaperDataflow()), cloud(withSpotTier(awsCatalog2013(), discount)) {}
  Dataflow df;
  CloudProvider cloud;
  TraceReplayer replayer = TraceReplayer::ideal();
  MonitoringService mon{cloud, replayer};

  /// Class names of every VM ever acquired, in acquisition order.
  std::vector<std::string> acquiredClasses() const {
    std::vector<std::string> names;
    for (const auto& vm : cloud.instances()) names.push_back(vm.spec().name);
    return names;
  }
};

TEST(AllocatorSpot, FractionOneBuysTheSpotTwin) {
  SpotFixture f;
  ResourceAllocator alloc(f.df, f.cloud, 0.7);
  alloc.setSpotPreference(1.0, 42);
  alloc.ensureMinimumCores(0.0);
  ASSERT_GT(f.cloud.instanceCount(), 0u);
  for (const auto& vm : f.cloud.instances()) {
    EXPECT_TRUE(vm.spec().preemptible) << vm.spec().name;
    EXPECT_EQ(vm.spec().name, "m1.xlarge-spot");
  }
}

TEST(AllocatorSpot, FractionZeroIsBitIdenticalToASpotUnawareAllocator) {
  SpotFixture unaware;
  SpotFixture zeroed;
  ResourceAllocator a(unaware.df, unaware.cloud, 0.7);
  ResourceAllocator b(zeroed.df, zeroed.cloud, 0.7);
  b.setSpotPreference(0.0, 42);
  Deployment da(unaware.df);
  Deployment db(zeroed.df);
  a.ensureMinimumCores(0.0);
  a.scaleOut(da, 60.0, ratedCorePowerFn(unaware.cloud), 0.0,
             Strategy::Global);
  b.ensureMinimumCores(0.0);
  b.scaleOut(db, 60.0, ratedCorePowerFn(zeroed.cloud), 0.0,
             Strategy::Global);
  EXPECT_EQ(unaware.acquiredClasses(), zeroed.acquiredClasses());
  for (const auto& vm : zeroed.cloud.instances()) {
    EXPECT_FALSE(vm.spec().preemptible) << vm.spec().name;
  }
}

TEST(AllocatorSpot, PreferredClassSkipsTheSpotTier) {
  // Even though the spot twin is cheaper at equal power, the unsteered
  // allocator must never buy preemptible capacity by accident.
  SpotFixture f;
  ResourceAllocator alloc(f.df, f.cloud, 0.7);
  alloc.ensureMinimumCores(0.0);
  for (const auto& vm : f.cloud.instances()) {
    EXPECT_FALSE(vm.spec().preemptible) << vm.spec().name;
  }
}

TEST(AllocatorSpot, SuppressionVetoesTheSpotTier) {
  SpotFixture f;
  ResourceAllocator alloc(f.df, f.cloud, 0.7);
  alloc.setSpotPreference(1.0, 42);
  alloc.suppressSpot(true);
  alloc.ensureMinimumCores(0.0);
  for (const auto& vm : f.cloud.instances()) {
    EXPECT_FALSE(vm.spec().preemptible) << vm.spec().name;
  }
  // Lifting the veto restores the preference for the next acquisition.
  alloc.suppressSpot(false);
  Deployment dep(f.df);
  alloc.scaleOut(dep, 80.0, ratedCorePowerFn(f.cloud), 0.0,
                 Strategy::Global);
  bool any_spot = false;
  for (const auto& vm : f.cloud.instances()) {
    any_spot = any_spot || vm.spec().preemptible;
  }
  EXPECT_TRUE(any_spot);
}

TEST(AllocatorSpot, ChoicesAreSeedDeterministic) {
  auto classesFor = [](std::uint64_t seed) {
    SpotFixture f;
    ResourceAllocator alloc(f.df, f.cloud, 0.7);
    alloc.setSpotPreference(0.5, seed);
    Deployment dep(f.df);
    alloc.ensureMinimumCores(0.0);
    alloc.scaleOut(dep, 120.0, ratedCorePowerFn(f.cloud), 0.0,
                   Strategy::Global);
    return f.acquiredClasses();
  };
  EXPECT_EQ(classesFor(42), classesFor(42));
}

TEST(AllocatorSpot, PlainCatalogIgnoresThePreference) {
  Fixture f(makePaperDataflow());  // on-demand-only catalog
  ResourceAllocator alloc(f.df, f.cloud, 0.7);
  alloc.setSpotPreference(1.0, 42);
  alloc.ensureMinimumCores(0.0);
  ASSERT_GT(f.cloud.instanceCount(), 0u);
  for (const auto& vm : f.cloud.instances()) {
    EXPECT_FALSE(vm.spec().preemptible);
  }
}

TEST(AllocatorSpot, PreferenceValidatesTheFraction) {
  SpotFixture f;
  ResourceAllocator alloc(f.df, f.cloud, 0.7);
  EXPECT_THROW(alloc.setSpotPreference(-0.1, 1), PreconditionError);
  EXPECT_THROW(alloc.setSpotPreference(1.1, 1), PreconditionError);
}

TEST(Allocator, ReleaseAtHourBoundaryKeepsMidHourVms) {
  Fixture f(makePaperDataflow());
  const VmId a = f.cloud.acquire(ResourceClassId(0), 0.0);
  ResourceAllocator alloc(f.df, f.cloud, 0.7);
  // 30 minutes in: the paid hour still has 1800 s left -> keep.
  EXPECT_EQ(alloc.releaseEmptyVms(
                ResourceAllocator::ReleasePolicy::AtHourBoundary, 1800.0,
                60.0),
            0);
  EXPECT_TRUE(f.cloud.instance(a).isActive());
  // 3570 s in: boundary within the next interval -> release.
  EXPECT_EQ(alloc.releaseEmptyVms(
                ResourceAllocator::ReleasePolicy::AtHourBoundary, 3570.0,
                60.0),
            1);
  EXPECT_FALSE(f.cloud.instance(a).isActive());
}

}  // namespace
}  // namespace dds

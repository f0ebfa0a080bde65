#include "dds/sim/deployment.hpp"

#include <gtest/gtest.h>

#include "dds/dataflow/standard_graphs.hpp"

namespace dds {
namespace {

struct Fixture {
  Dataflow df = makePaperDataflow();
  CloudProvider cloud{awsCatalog2013()};
  TraceReplayer replayer = TraceReplayer::ideal();
  MonitoringService mon{cloud, replayer};
};

TEST(Deployment, DefaultsToFirstAlternate) {
  Fixture f;
  const Deployment d(f.df);
  EXPECT_EQ(d.peCount(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(d.activeAlternate(PeId(i)), AlternateId(0));
  }
}

TEST(Deployment, SetAndGetAlternate) {
  Fixture f;
  Deployment d(f.df);
  d.setActiveAlternate(PeId(1), AlternateId(1));
  EXPECT_EQ(d.activeAlternate(PeId(1)), AlternateId(1));
  EXPECT_EQ(d.activeAlternate(PeId(2)), AlternateId(0));
}

TEST(Deployment, RejectsOutOfRangeIndices) {
  Fixture f;
  Deployment d(f.df);
  EXPECT_THROW(d.setActiveAlternate(PeId(9), AlternateId(0)),
               PreconditionError);
  // E1 has a single alternate.
  EXPECT_THROW(d.setActiveAlternate(PeId(0), AlternateId(1)),
               PreconditionError);
  EXPECT_THROW((void)d.activeAlternate(PeId(9)), PreconditionError);
}

TEST(DeploymentViews, PeCoresGroupsByVm) {
  Fixture f;
  const VmId a = f.cloud.acquire(ResourceClassId(3), 0.0);  // 4 cores
  const VmId b = f.cloud.acquire(ResourceClassId(0), 0.0);  // 1 core
  f.cloud.allocateCore(a, PeId(1));
  f.cloud.allocateCore(a, PeId(1));
  f.cloud.allocateCore(b, PeId(1));
  f.cloud.allocateCore(a, PeId(2));

  const auto cores = peCores(f.cloud, PeId(1));
  ASSERT_EQ(cores.size(), 2u);
  int total = 0;
  for (const auto& vc : cores) total += vc.cores;
  EXPECT_EQ(total, 3);
  EXPECT_EQ(totalCores(f.cloud, PeId(1)), 3);
  EXPECT_EQ(totalCores(f.cloud, PeId(2)), 1);
  EXPECT_EQ(totalCores(f.cloud, PeId(0)), 0);
}

TEST(DeploymentViews, ReleasedVmsAreInvisible) {
  Fixture f;
  const VmId a = f.cloud.acquire(ResourceClassId(0), 0.0);
  f.cloud.allocateCore(a, PeId(0));
  EXPECT_EQ(totalCores(f.cloud, PeId(0)), 1);
  f.cloud.releaseAllCoresOf(a, PeId(0));
  f.cloud.release(a, 10.0);
  EXPECT_EQ(totalCores(f.cloud, PeId(0)), 0);
  EXPECT_TRUE(peCores(f.cloud, PeId(0)).empty());
}

TEST(DeploymentViews, RatedPowerSumsCoreSpeeds) {
  Fixture f;
  const VmId xl = f.cloud.acquire(ResourceClassId(3), 0.0);  // speed 2
  const VmId sm = f.cloud.acquire(ResourceClassId(0), 0.0);  // speed 1
  f.cloud.allocateCore(xl, PeId(0));
  f.cloud.allocateCore(xl, PeId(0));
  f.cloud.allocateCore(sm, PeId(0));
  EXPECT_DOUBLE_EQ(ratedPowerOf(f.cloud, PeId(0)), 5.0);
}

TEST(DeploymentViews, ObservedPowerUsesMonitoring) {
  CloudProvider cloud(awsCatalog2013());
  TraceReplayer degraded({PerfTrace::constant(0.5)},
                         {PerfTrace::constant(1.0)},
                         {PerfTrace::constant(1.0)}, 0);
  MonitoringService mon(cloud, degraded);
  const VmId xl = cloud.acquire(ResourceClassId(3), 0.0);
  cloud.allocateCore(xl, PeId(0));
  EXPECT_DOUBLE_EQ(ratedPowerOf(cloud, PeId(0)), 2.0);
  EXPECT_DOUBLE_EQ(observedPowerOf(cloud, mon, PeId(0), 0.0), 1.0);
}

TEST(DeploymentViews, Colocation) {
  Fixture f;
  const VmId a = f.cloud.acquire(ResourceClassId(3), 0.0);
  const VmId b = f.cloud.acquire(ResourceClassId(3), 0.0);
  f.cloud.allocateCore(a, PeId(0));
  f.cloud.allocateCore(a, PeId(1));
  f.cloud.allocateCore(b, PeId(2));
  EXPECT_TRUE(areColocated(f.cloud, PeId(0), PeId(1)));
  EXPECT_FALSE(areColocated(f.cloud, PeId(0), PeId(2)));
}

TEST(DeploymentViews, TotalAllocatedCoresCountsActiveVmsOnly) {
  Fixture f;
  const VmId a = f.cloud.acquire(ResourceClassId(3), 0.0);
  const VmId b = f.cloud.acquire(ResourceClassId(0), 0.0);
  f.cloud.allocateCore(a, PeId(0));
  f.cloud.allocateCore(a, PeId(1));
  f.cloud.allocateCore(b, PeId(2));
  EXPECT_EQ(totalAllocatedCores(f.cloud), 3);
  f.cloud.releaseAllCoresOf(b, PeId(2));
  f.cloud.release(b, 0.0);
  EXPECT_EQ(totalAllocatedCores(f.cloud), 2);
}

}  // namespace
}  // namespace dds

#include "dds/sim/deployment_report.hpp"

#include <gtest/gtest.h>

#include "dds/dataflow/standard_graphs.hpp"

namespace dds {
namespace {

struct Fixture {
  Dataflow df = makePaperDataflow();
  CloudProvider cloud{awsCatalog2013()};
};

TEST(DeploymentReport, EmptyCloudSaysSo) {
  Fixture f;
  EXPECT_NE(renderVmLayout(f.df, f.cloud).find("no active VMs"),
            std::string::npos);
}

TEST(DeploymentReport, VmLayoutShowsOwnersAndFreeSlots) {
  Fixture f;
  const VmId vm = f.cloud.acquire(ResourceClassId(3), 0.0);  // 4 cores
  f.cloud.allocateCore(vm, PeId(0));
  f.cloud.allocateCore(vm, PeId(1));
  const std::string out = renderVmLayout(f.df, f.cloud);
  EXPECT_NE(out.find("m1.xlarge"), std::string::npos);
  EXPECT_NE(out.find("E1"), std::string::npos);
  EXPECT_NE(out.find("E2"), std::string::npos);
  EXPECT_NE(out.find("--"), std::string::npos);  // two free cores
}

TEST(DeploymentReport, ReleasedVmsDisappear) {
  Fixture f;
  const VmId vm = f.cloud.acquire(ResourceClassId(0), 0.0);
  f.cloud.release(vm, 0.0);
  EXPECT_EQ(renderVmLayout(f.df, f.cloud).find("vm-0"), std::string::npos);
}

TEST(DeploymentReport, PeAllocationsNameActiveAlternate) {
  Fixture f;
  const VmId vm = f.cloud.acquire(ResourceClassId(3), 0.0);
  f.cloud.allocateCore(vm, PeId(1));
  f.cloud.allocateCore(vm, PeId(1));
  Deployment dep(f.df);
  dep.setActiveAlternate(PeId(1), AlternateId(1));
  const std::string out = renderPeAllocations(f.df, f.cloud, dep);
  EXPECT_NE(out.find("PE E2 (e2-fast): 2 cores"), std::string::npos);
  EXPECT_NE(out.find("rated power 4"), std::string::npos);
  EXPECT_NE(out.find("PE E3 (e3-accurate): 0 cores"), std::string::npos);
}

TEST(DeploymentReport, FullSnapshotIncludesCost) {
  Fixture f;
  (void)f.cloud.acquire(ResourceClassId(0), 0.0);
  const Deployment dep(f.df);
  const std::string out =
      renderDeployment(f.df, f.cloud, dep, kSecondsPerHour);
  EXPECT_NE(out.find("accumulated cost: $0.06"), std::string::npos);
  EXPECT_NE(out.find("sc13-fig1"), std::string::npos);
}

}  // namespace
}  // namespace dds

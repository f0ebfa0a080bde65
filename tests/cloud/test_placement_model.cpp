#include "dds/cloud/placement_model.hpp"

#include <gtest/gtest.h>

#include <map>

#include "dds/core/engine.hpp"
#include "dds/dataflow/standard_graphs.hpp"
#include "dds/monitor/monitoring.hpp"

namespace dds {
namespace {

PlacementModel makeModel(int racks = 4, std::uint64_t seed = 7) {
  return PlacementModel(racks, seed);
}

TEST(PlacementModel, ConfigValidation) {
  EXPECT_THROW(PlacementModel(0, 1), PreconditionError);
}

TEST(PlacementModel, RackAssignmentIsDeterministic) {
  const auto a = makeModel();
  const auto b = makeModel();
  for (std::uint32_t v = 0; v < 50; ++v) {
    EXPECT_EQ(a.rackOf(VmId(v)), b.rackOf(VmId(v)));
    EXPECT_GE(a.rackOf(VmId(v)), 0);
    EXPECT_LT(a.rackOf(VmId(v)), 4);
  }
}

TEST(PlacementModel, SeedChangesAssignment) {
  const auto a = makeModel(4, 1);
  const auto b = makeModel(4, 2);
  int differing = 0;
  for (std::uint32_t v = 0; v < 40; ++v) {
    if (a.rackOf(VmId(v)) != b.rackOf(VmId(v))) ++differing;
  }
  EXPECT_GT(differing, 10);
}

TEST(PlacementModel, RacksAreRoughlyBalanced) {
  const auto m = makeModel(4, 99);
  std::map<int, int> counts;
  for (std::uint32_t v = 0; v < 400; ++v) ++counts[m.rackOf(VmId(v))];
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [rack, n] : counts) {
    EXPECT_GT(n, 60) << "rack " << rack;
    EXPECT_LT(n, 140) << "rack " << rack;
  }
}

TEST(PlacementModel, SameRackGetsBetterNetwork) {
  const auto m = makeModel(2, 3);
  // Find a same-rack and a cross-rack pair.
  VmId same_a(0), same_b(0), cross_a(0), cross_b(0);
  bool found_same = false, found_cross = false;
  for (std::uint32_t i = 0; i < 64 && !(found_same && found_cross); ++i) {
    for (std::uint32_t j = i + 1; j < 64; ++j) {
      if (m.sameRack(VmId(i), VmId(j)) && !found_same) {
        same_a = VmId(i);
        same_b = VmId(j);
        found_same = true;
      } else if (!m.sameRack(VmId(i), VmId(j)) && !found_cross) {
        cross_a = VmId(i);
        cross_b = VmId(j);
        found_cross = true;
      }
    }
  }
  ASSERT_TRUE(found_same && found_cross);
  EXPECT_GT(m.bandwidthFactor(same_a, same_b),
            m.bandwidthFactor(cross_a, cross_b));
  EXPECT_LT(m.latencyFactor(same_a, same_b),
            m.latencyFactor(cross_a, cross_b));
}

TEST(PlacementModel, SingleRackIsUniform) {
  const auto m = makeModel(1, 5);
  EXPECT_TRUE(m.sameRack(VmId(0), VmId(1)));
  EXPECT_DOUBLE_EQ(m.bandwidthFactor(VmId(0), VmId(1)), 2.0);
}

TEST(PlacementModel, MonitoringComposesSpatialFactors) {
  CloudProvider cloud(awsCatalog2013());
  TraceReplayer ideal = TraceReplayer::ideal();
  const PlacementModel placement(2, 11);
  MonitoringService mon(cloud, ideal, &placement);
  const VmId a = cloud.acquire(ResourceClassId(0), 0.0);
  const VmId b = cloud.acquire(ResourceClassId(0), 0.0);
  const double expected =
      100.0 * placement.bandwidthFactor(a, b);  // rated 100 x factor
  EXPECT_DOUBLE_EQ(mon.observedBandwidthMbps(a, b, 0.0), expected);
  EXPECT_DOUBLE_EQ(mon.observedLatencyMs(a, b, 0.0),
                   MonitoringService::kBaseLatencyMs *
                       placement.latencyFactor(a, b));
  // Colocation still wins over placement.
  EXPECT_TRUE(std::isinf(mon.observedBandwidthMbps(a, a, 0.0)));
}

TEST(PlacementModel, EngineRunsWithPlacementEnabled) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg;
  cfg.horizon_s = 30.0 * kSecondsPerMinute;
  cfg.workload.mean_rate = 10.0;
  cfg.placement_racks = 4;
  const auto r = SimulationEngine(df, cfg).run(parseScheduler("global"));
  EXPECT_TRUE(r.constraint_met) << r.average_omega;
  cfg.placement_racks = -1;
  EXPECT_THROW(SimulationEngine(df, cfg), PreconditionError);
}

}  // namespace
}  // namespace dds

#include <gtest/gtest.h>

#include "dds/cloud/resource_class.hpp"
#include "dds/core/engine.hpp"
#include "dds/dataflow/standard_graphs.hpp"

namespace dds {
namespace {

TEST(Catalogs, SecondGenHasFastCores) {
  const auto cat = awsCatalogSecondGen2013();
  ASSERT_EQ(cat.size(), 2u);
  for (const auto& cls : cat.classes()) {
    EXPECT_DOUBLE_EQ(cls.core_speed, 3.25);
  }
  EXPECT_EQ(cat.at(cat.largest()).name, "m3.2xlarge");
  EXPECT_DOUBLE_EQ(cat.at(cat.largest()).totalPower(), 26.0);
}

TEST(Catalogs, SecondGenCostsMorePerPowerUnit) {
  const auto m1 = awsCatalog2013();
  const auto m3 = awsCatalogSecondGen2013();
  const auto& m1_class = m1.at(ResourceClassId(0));
  for (const auto& cls : m3.classes()) {
    EXPECT_GT(cls.price_per_hour / cls.totalPower(),
              m1_class.price_per_hour / m1_class.totalPower());
  }
}

TEST(Catalogs, MixedCombinesBoth) {
  const auto cat = awsCatalogMixed2013();
  EXPECT_EQ(cat.size(), 6u);
  EXPECT_NO_THROW((void)cat.byName("m1.small"));
  EXPECT_NO_THROW((void)cat.byName("m3.2xlarge"));
  // smallestFitting still finds the cheap fine-grained class.
  EXPECT_EQ(cat.at(cat.smallestFitting(0.5)).name, "m1.small");
  // Very large demands land on the dense second-gen class.
  EXPECT_EQ(cat.at(cat.smallestFitting(20.0)).name, "m3.2xlarge");
}

TEST(Catalogs, ByNameLookup) {
  EXPECT_EQ(catalogByName("m1").size(), 4u);
  EXPECT_EQ(catalogByName("m3").size(), 2u);
  EXPECT_EQ(catalogByName("mixed").size(), 6u);
  EXPECT_THROW((void)catalogByName("gpu"), PreconditionError);
}

TEST(Catalogs, EngineRunsOnEveryCatalog) {
  const Dataflow df = makePaperDataflow();
  for (const std::string name : {"m1", "m3", "mixed"}) {
    ExperimentConfig cfg;
    cfg.horizon_s = 30.0 * kSecondsPerMinute;
    cfg.workload.mean_rate = 10.0;
    cfg.catalog = name;
    const auto r =
        SimulationEngine(df, cfg).run(parseScheduler("global"));
    EXPECT_TRUE(r.constraint_met) << name << " " << r.average_omega;
  }
  ExperimentConfig bad;
  bad.catalog = "quantum";
  EXPECT_THROW(SimulationEngine(df, bad), PreconditionError);
}

TEST(Catalogs, CoarseCatalogCostsMoreAtTinyRates) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg;
  cfg.horizon_s = kSecondsPerHour;
  cfg.workload.mean_rate = 2.0;
  cfg.catalog = "m1";
  const auto fine =
      SimulationEngine(df, cfg).run(parseScheduler("global"));
  cfg.catalog = "m3";
  const auto coarse =
      SimulationEngine(df, cfg).run(parseScheduler("global"));
  EXPECT_LT(fine.total_cost, coarse.total_cost);
}

TEST(Catalogs, CheapestPowerAcquisitionFixesMixedMenu) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg;
  cfg.horizon_s = kSecondsPerHour;
  cfg.workload.mean_rate = 20.0;
  cfg.catalog = "mixed";
  const auto largest_first =
      SimulationEngine(df, cfg).run(parseScheduler("global"));
  cfg.heuristic.acquisition =
      ResourceAllocator::AcquisitionPolicy::CheapestPower;
  const auto cheapest =
      SimulationEngine(df, cfg).run(parseScheduler("global"));
  // The paper's largest-first rule buys the pricier m3 classes on the
  // mixed menu; cost-aware acquisition recovers the m1 price line.
  EXPECT_LT(cheapest.total_cost, largest_first.total_cost);
  EXPECT_TRUE(cheapest.constraint_met);
}

TEST(Catalogs, CheapestPowerIsNoOpOnUniformPricing) {
  // Every m1 class costs $0.06 per power unit: both policies pick the
  // largest class, so behaviour is identical.
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg;
  cfg.horizon_s = kSecondsPerHour;
  cfg.workload.mean_rate = 10.0;
  const auto a = SimulationEngine(df, cfg).run(parseScheduler("global"));
  cfg.heuristic.acquisition =
      ResourceAllocator::AcquisitionPolicy::CheapestPower;
  const auto b = SimulationEngine(df, cfg).run(parseScheduler("global"));
  EXPECT_DOUBLE_EQ(a.total_cost, b.total_cost);
  EXPECT_DOUBLE_EQ(a.average_omega, b.average_omega);
}

}  // namespace
}  // namespace dds

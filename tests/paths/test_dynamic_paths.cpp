#include "dds/paths/dynamic_paths.hpp"

#include <gtest/gtest.h>

#include "dds/core/engine.hpp"

namespace dds {
namespace {

TEST(PathVariant, ValidationCatchesBadShapes) {
  PathVariant v;
  v.name = "v";
  EXPECT_THROW(v.validate(), PreconditionError);  // no PEs
  v.pes = {{"a", {{"a0", 1.0, 1.0, 1.0}}}};
  EXPECT_THROW(v.validate(), PreconditionError);  // no entries
  v.entries = {0};
  EXPECT_THROW(v.validate(), PreconditionError);  // no exits
  v.exits = {0};
  EXPECT_NO_THROW(v.validate());
  v.internal_edges = {{0, 5}};
  EXPECT_THROW(v.validate(), PreconditionError);  // edge out of range
}

TEST(DynamicPaths, CascadeExampleHasTwoVariants) {
  const auto app = makeCascadePathApplication();
  EXPECT_EQ(app.variantCount(), 2u);
  EXPECT_EQ(app.variant(0).name, "deep-model");
  EXPECT_EQ(app.variant(1).name, "cascade");
  EXPECT_THROW((void)app.variant(2), PreconditionError);
}

TEST(DynamicPaths, MaterializeBuildsValidGraphs) {
  const auto app = makeCascadePathApplication();
  const Dataflow deep = app.materialize(0);
  EXPECT_EQ(deep.peCount(), 3u);  // ingest, deep, publish
  EXPECT_EQ(deep.inputs().size(), 1u);
  EXPECT_EQ(deep.outputs().size(), 1u);

  const Dataflow cascade = app.materialize(1);
  EXPECT_EQ(cascade.peCount(), 4u);  // ingest, filter, light, publish
  // The fragment is wired between the boundary PEs.
  EXPECT_EQ(cascade.successors(PeId(0)).size(), 1u);
  EXPECT_EQ(cascade.predecessors(PeId(3)).size(), 1u);
}

TEST(DynamicPaths, VariantValueNormalizesToBest) {
  const auto app = makeCascadePathApplication();
  // deep raw value 0.95; cascade raw (0.9 + 0.75)/2 = 0.825.
  EXPECT_DOUBLE_EQ(app.variantValue(0), 1.0);
  EXPECT_NEAR(app.variantValue(1), 0.825 / 0.95, 1e-12);
}

TEST(DynamicPaths, GlobalCostReflectsSelectivity) {
  const auto app = makeCascadePathApplication();
  // deep: dc(deep) = 10 + 1.0 * dc(publish=1) = 11.
  EXPECT_NEAR(app.variantCost(0, Strategy::Global), 11.0, 1e-12);
  // cascade: dc(light) = 4 + 1*1 = 5; dc(filter) = 1.5 + 0.4*5 = 3.5.
  EXPECT_NEAR(app.variantCost(1, Strategy::Global), 3.5, 1e-12);
}

TEST(DynamicPaths, LocalCostIsPlainSum) {
  const auto app = makeCascadePathApplication();
  EXPECT_NEAR(app.variantCost(0, Strategy::Local), 10.0, 1e-12);
  EXPECT_NEAR(app.variantCost(1, Strategy::Local), 1.5 + 4.0, 1e-12);
}

TEST(DynamicPaths, SelectionPrefersCascadeUnderBothStrategies) {
  const auto app = makeCascadePathApplication();
  // Global: deep 1.0/11 = 0.091 vs cascade 0.868/3.5 = 0.248.
  EXPECT_EQ(app.selectVariant(Strategy::Global), 1u);
  // Local: deep 1.0/10 = 0.1 vs cascade 0.868/5.5 = 0.158.
  EXPECT_EQ(app.selectVariant(Strategy::Local), 1u);
}

TEST(DynamicPaths, SelectionCanPreferTheRichPath) {
  // When the alternatives cost the same, value decides.
  std::vector<PathVariant::FragmentPe> head = {
      {"in", {{"in", 1.0, 1.0, 1.0}}}};
  std::vector<PathVariant::FragmentPe> tail = {
      {"out", {{"out", 1.0, 1.0, 1.0}}}};
  PathVariant a;
  a.name = "rich";
  a.pes = {{"rich", {{"rich", 0.9, 2.0, 1.0}}}};
  a.entries = {0};
  a.exits = {0};
  PathVariant b = a;
  b.name = "poor";
  b.pes = {{"poor", {{"poor", 0.5, 2.0, 1.0}}}};
  const DynamicPathApplication app("t", head, tail, {a, b});
  EXPECT_EQ(app.selectVariant(Strategy::Global), 0u);
}

TEST(DynamicPaths, MaterializedVariantsRunEndToEnd) {
  const auto app = makeCascadePathApplication();
  ExperimentConfig cfg;
  cfg.horizon_s = 30.0 * kSecondsPerMinute;
  cfg.workload.mean_rate = 10.0;
  for (std::size_t i = 0; i < app.variantCount(); ++i) {
    const Dataflow df = app.materialize(i);
    const auto r = SimulationEngine(df, cfg).run(
        parseScheduler("global"));
    EXPECT_TRUE(r.constraint_met) << app.variant(i).name;
  }
}

TEST(DynamicPaths, ChosenPathIsCheaperAtRuntime) {
  const auto app = makeCascadePathApplication();
  ExperimentConfig cfg;
  cfg.horizon_s = kSecondsPerHour;
  cfg.workload.mean_rate = 20.0;
  const auto chosen = SimulationEngine(
                          app.materialize(app.selectVariant(Strategy::Global)),
                          cfg)
                          .run(parseScheduler("global"));
  const auto deep =
      SimulationEngine(app.materialize(0), cfg)
          .run(parseScheduler("global"));
  EXPECT_LT(chosen.total_cost, deep.total_cost);
}

}  // namespace
}  // namespace dds

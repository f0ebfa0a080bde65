#include "dds/exp/substrate.hpp"

#include "dds/dataflow/standard_graphs.hpp"
#include "dds/sched/plan_evaluator.hpp"
#include "dds/sim/fluid_layout.hpp"

namespace dds {

std::shared_ptr<const ResourceCatalog> Substrate::catalogFor(
    const ExperimentConfig& config) {
  const double discount = config.elasticity.spotEnabled()
                              ? config.elasticity.spot_discount
                              : 0.0;
  const std::pair<std::string, double> key{config.catalog, discount};
  std::scoped_lock lock(mutex_);
  auto it = catalogs_.find(key);
  if (it != catalogs_.end()) {
    ++stats_.catalog_hits;
    return it->second;
  }
  ++stats_.catalog_builds;
  // The exact resolution the engine performs standalone.
  auto catalog = std::make_shared<const ResourceCatalog>(
      discount > 0.0 ? withSpotTier(catalogByName(config.catalog), discount)
                     : catalogByName(config.catalog));
  catalogs_.emplace(key, catalog);
  return catalog;
}

std::shared_ptr<const TraceCorpus> Substrate::tracePoolsFor(
    std::uint64_t /*seed*/) {
  return TraceReplayer::futureGridCorpus();
}

std::shared_ptr<const PlanStructure> Substrate::planStructureFor(
    const Dataflow& df, std::shared_ptr<const ResourceCatalog> catalog) {
  DDS_REQUIRE(catalog != nullptr, "plan structure needs a catalog");
  const std::pair<const void*, const void*> key{&df, catalog.get()};
  std::scoped_lock lock(mutex_);
  auto it = plans_.find(key);
  if (it != plans_.end()) {
    ++stats_.plan_hits;
    return it->second;
  }
  ++stats_.plan_builds;
  auto plan = PlanStructure::build(df, *catalog);
  plans_.emplace(key, plan);
  return plan;
}

std::shared_ptr<const Dataflow> Substrate::graphFor(
    const std::string& graph, std::size_t chain_length) {
  // Only "chain" reads the length; normalize the key so "paper" jobs with
  // different chain_length defaults share one graph.
  const std::pair<std::string, std::size_t> key{
      graph, graph == "chain" ? chain_length : 0};
  std::scoped_lock lock(mutex_);
  auto it = graphs_.find(key);
  if (it != graphs_.end()) {
    ++stats_.graph_hits;
    return it->second;
  }
  ++stats_.graph_builds;
  std::shared_ptr<const Dataflow> df;
  if (graph == "paper") {
    df = std::make_shared<const Dataflow>(makePaperDataflow());
  } else if (graph == "diamond") {
    df = std::make_shared<const Dataflow>(makeDiamondDataflow());
  } else if (graph == "chain") {
    df = std::make_shared<const Dataflow>(makeChainDataflow(chain_length, 2));
  } else {
    throw PreconditionError("unknown graph: '" + graph + "'");
  }
  graphs_.emplace(key, df);
  return df;
}

std::shared_ptr<const FluidGraphLayout> Substrate::fluidLayoutFor(
    const Dataflow& df) {
  std::scoped_lock lock(mutex_);
  auto it = fluid_layouts_.find(&df);
  if (it != fluid_layouts_.end()) {
    ++stats_.fluid_layout_hits;
    return it->second;
  }
  ++stats_.fluid_layout_builds;
  auto layout = buildFluidLayout(df);
  fluid_layouts_.emplace(&df, layout);
  return layout;
}

EngineArenas Substrate::arenasFor(const Dataflow& df,
                                  const ExperimentConfig& config) {
  EngineArenas arenas;
  arenas.catalog = catalogFor(config);
  arenas.plan_structure = planStructureFor(df, arenas.catalog);
  if (config.backend == SimBackend::Fluid) {
    arenas.fluid_layout = fluidLayoutFor(df);
  }
  return arenas;
}

Substrate::Stats Substrate::stats() const {
  std::scoped_lock lock(mutex_);
  return stats_;
}

}  // namespace dds

#include "dds/exp/substrate.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "dds/common/time.hpp"
#include "dds/dataflow/standard_graphs.hpp"
#include "dds/exp/campaign.hpp"

namespace dds {
namespace {

ExperimentConfig variedConfig() {
  ExperimentConfig cfg;
  cfg.horizon_s = 0.5 * kSecondsPerHour;
  cfg.workload.mean_rate = 10.0;
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.workload.infra_variability = true;
  cfg.seed = 31;
  return cfg;
}

void expectSameRun(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.scheduler_name, b.scheduler_name);
  EXPECT_EQ(a.average_omega, b.average_omega);
  EXPECT_EQ(a.average_gamma, b.average_gamma);
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.theta, b.theta);
  EXPECT_EQ(a.peak_vms, b.peak_vms);
  EXPECT_EQ(a.peak_cores, b.peak_cores);
  ASSERT_EQ(a.run.intervals().size(), b.run.intervals().size());
  for (std::size_t i = 0; i < a.run.intervals().size(); ++i) {
    EXPECT_EQ(a.run.intervals()[i].omega, b.run.intervals()[i].omega);
    EXPECT_EQ(a.run.intervals()[i].cost_cumulative,
              b.run.intervals()[i].cost_cumulative);
  }
}

TEST(Substrate, ArenasAreSharedNotRebuilt) {
  Substrate substrate;
  const Dataflow df = makePaperDataflow();
  const ExperimentConfig cfg = variedConfig();

  const EngineArenas first = substrate.arenasFor(df, cfg);
  const EngineArenas second = substrate.arenasFor(df, cfg);
  ASSERT_NE(first.catalog, nullptr);
  ASSERT_NE(first.plan_structure, nullptr);
  // Same immutable objects, not equal copies.
  EXPECT_EQ(first.catalog.get(), second.catalog.get());
  EXPECT_EQ(first.plan_structure.get(), second.plan_structure.get());

  Substrate::Stats stats = substrate.stats();
  EXPECT_EQ(stats.catalog_builds, 1u);
  EXPECT_EQ(stats.catalog_hits, 1u);
  EXPECT_EQ(stats.plan_builds, 1u);
  EXPECT_EQ(stats.plan_hits, 1u);

  // The seed is not part of any arena key: another seed reuses every
  // arena, and trace replay needs none (all runs read one corpus).
  ExperimentConfig other = cfg;
  other.seed = 32;
  const EngineArenas third = substrate.arenasFor(df, other);
  EXPECT_EQ(third.catalog.get(), first.catalog.get());
  EXPECT_EQ(third.plan_structure.get(), first.plan_structure.get());
  stats = substrate.stats();
  EXPECT_EQ(stats.catalog_builds, 1u);
  EXPECT_EQ(stats.plan_builds, 1u);
}

TEST(Substrate, TracePoolsForIsTheSharedCorpusForEverySeed) {
  Substrate substrate;
  const auto corpus = TraceReplayer::futureGridCorpus();
  EXPECT_EQ(substrate.tracePoolsFor(31).get(), corpus.get());
  EXPECT_EQ(substrate.tracePoolsFor(32).get(), corpus.get());
  EXPECT_EQ(substrate.stats().pool_builds, 0u);
  EXPECT_EQ(substrate.stats().pool_hits, 0u);
}

TEST(Substrate, FluidLayoutSharedAcrossJobsOfOneGraph) {
  Substrate substrate;
  const Dataflow df = makePaperDataflow();
  const ExperimentConfig cfg = variedConfig();

  const EngineArenas first = substrate.arenasFor(df, cfg);
  const EngineArenas second = substrate.arenasFor(df, cfg);
  ASSERT_NE(first.fluid_layout, nullptr);
  EXPECT_EQ(first.fluid_layout.get(), second.fluid_layout.get());
  EXPECT_EQ(substrate.stats().fluid_layout_builds, 1u);
  EXPECT_EQ(substrate.stats().fluid_layout_hits, 1u);

  // The event backend has no fluid kernel, so no layout is attached
  // (and none is built for it).
  ExperimentConfig event = cfg;
  event.backend = SimBackend::Event;
  EXPECT_EQ(substrate.arenasFor(df, event).fluid_layout, nullptr);
  EXPECT_EQ(substrate.stats().fluid_layout_builds, 1u);

  // A different graph gets its own layout.
  const Dataflow other = makeDiamondDataflow();
  const EngineArenas third = substrate.arenasFor(other, cfg);
  ASSERT_NE(third.fluid_layout, nullptr);
  EXPECT_NE(third.fluid_layout.get(), first.fluid_layout.get());
  EXPECT_EQ(substrate.stats().fluid_layout_builds, 2u);
}

TEST(Substrate, GraphCacheSharesByNameAndLength) {
  Substrate substrate;
  EXPECT_EQ(substrate.graphFor("paper", 4).get(),
            substrate.graphFor("paper", 9).get());  // length ignored
  EXPECT_EQ(substrate.graphFor("chain", 4).get(),
            substrate.graphFor("chain", 4).get());
  EXPECT_NE(substrate.graphFor("chain", 4).get(),
            substrate.graphFor("chain", 5).get());
  EXPECT_THROW(substrate.graphFor("torus", 4), PreconditionError);
}

TEST(Substrate, ArenaRunsAreBitIdenticalToStandalone) {
  // The whole substrate contract: an engine consuming shared arenas is
  // indistinguishable from one building its own. Exercised with spot
  // pricing (catalog twin), trace replay and the planner closure all
  // active.
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg = variedConfig();
  cfg.elasticity.spot_discount = 0.6;
  cfg.elasticity.spot_preemption_mtbf_h = 2.0;

  Substrate substrate;
  for (const auto kind :
       {parseScheduler("global"), parseScheduler("local")}) {
    const SimulationEngine standalone(df, cfg);
    const SimulationEngine shared(df, cfg, substrate.arenasFor(df, cfg));
    expectSameRun(standalone.run(kind), shared.run(kind));
  }
}

TEST(Substrate, ConcurrentJobsDoNotPerturbSiblings) {
  // COW isolation: every job's result fingerprint must be independent of
  // which other jobs run beside it on the same substrate. Reference
  // fingerprints come from fresh single-job substrates; the probe runs
  // all jobs concurrently against ONE substrate (also the TSan target).
  const Dataflow df = makePaperDataflow();
  std::vector<ExperimentJob> jobs;
  for (std::uint64_t seed = 60; seed < 64; ++seed) {
    ExperimentConfig cfg = variedConfig();
    cfg.seed = seed;
    cfg.workload.mean_rate = 6.0 + 2.0 * static_cast<double>(seed - 60);
    jobs.push_back({.dataflow = &df,
                    .config = cfg,
                    .kind = seed % 2 == 0 ? parseScheduler("global")
                                          : parseScheduler("local")});
  }

  std::vector<JobOutcome> isolated;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Substrate fresh;
    isolated.push_back(runExperimentJob(jobs[i], i, &fresh));
  }

  Substrate shared;
  std::vector<JobOutcome> together(jobs.size());
  {
    std::vector<std::thread> threads;
    threads.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      threads.emplace_back([&, i]() {
        together[i] = runExperimentJob(jobs[i], i, &shared);
      });
    }
    for (auto& t : threads) t.join();
  }

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(isolated[i].ok) << isolated[i].error;
    ASSERT_TRUE(together[i].ok) << together[i].error;
    expectSameRun(isolated[i].result, together[i].result);
  }
  // The shared substrate actually shared: one catalog, one plan closure
  // and one fluid layout across all four seeds.
  const Substrate::Stats stats = shared.stats();
  EXPECT_EQ(stats.catalog_builds, 1u);
  EXPECT_EQ(stats.plan_builds, 1u);
  EXPECT_EQ(stats.fluid_layout_builds, 1u);
}

}  // namespace
}  // namespace dds

// Golden regression tests pinning the planners' exact decisions.
//
// The incremental PlanEvaluator is a pure cache: it must not change any
// plan, Theta double, RNG consumption or trace byte relative to the
// from-scratch evaluation the planners shipped with. These tests pin the
// plans and Theta values (hexfloat, bitwise) captured from the
// pre-evaluator implementation, plus two full engine traces compared byte
// for byte against committed fixtures. The annealer itself requires its
// incremental best Theta to equal a from-scratch re-score bit for bit.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "dds/core/engine.hpp"
#include "dds/dataflow/standard_graphs.hpp"
#include "dds/obs/jsonl_sink.hpp"
#include "dds/oracle/invariants.hpp"
#include "dds/oracle/run_reference.hpp"
#include "dds/sched/annealing_planner.hpp"
#include "dds/sched/brute_force.hpp"
#include "golden.hpp"

namespace dds {
namespace {

struct Fixture {
  explicit Fixture(Dataflow graph) : df(std::move(graph)) {}
  Dataflow df;
  CloudProvider cloud{awsCatalog2013()};
  TraceReplayer replayer = TraceReplayer::ideal();
  MonitoringService mon{cloud, replayer};

  /// Planners read sigma, T and the seed from the env; seed 1 is the
  /// one the pinned annealing plans were captured with.
  SchedulerEnv env(double sigma = 0.0, SimTime horizon_s = kSecondsPerHour,
                   std::uint64_t seed = 1) {
    SchedulerEnv e;
    e.sigma = sigma;
    e.horizon_s = horizon_s;
    e.seed = seed;
    e.dataflow = &df;
    e.cloud = &cloud;
    e.monitor = &mon;
    return e;
  }

  std::map<std::string, int> vmMultiset() const {
    std::map<std::string, int> by_class;
    for (const VmId id : cloud.activeVms()) {
      ++by_class[cloud.instance(id).spec().name];
    }
    return by_class;
  }

  int allocatedCores() const {
    int cores = 0;
    for (const VmId id : cloud.activeVms()) {
      cores += cloud.instance(id).allocatedCoreCount();
    }
    return cores;
  }
};

TEST(PlannerDeterminism, GoldenAnnealingPlanOnPaperGraph) {
  Fixture f(makePaperDataflow());
  AnnealingScheduler s(f.env(0.01, kSecondsPerHour), AnnealingOptions{});
  const Deployment dep = s.deploy(5.0);
  // Captured from the pre-evaluator implementation (bitwise).
  EXPECT_EQ(s.bestTheta(), 0x1.e0aa64c2f837bp-1);
  for (std::size_t i = 0; i < f.df.peCount(); ++i) {
    EXPECT_EQ(dep.activeAlternate(PeId(static_cast<PeId::value_type>(i)))
                  .value(),
              0u);
  }
  const std::map<std::string, int> expected_vms{
      {"m1.medium", 3}, {"m1.small", 8}, {"m1.xlarge", 11}};
  EXPECT_EQ(f.vmMultiset(), expected_vms);
  EXPECT_EQ(f.allocatedCores(), 55);
}

TEST(PlannerDeterminism, GoldenAnnealingPlanOnLayeredGraph) {
  Rng rng(99);
  Fixture f(makeLayeredDataflow(6, 4, 3, rng));
  AnnealingOptions opts;
  opts.iterations = 4000;
  AnnealingScheduler s(f.env(0.005, 2 * kSecondsPerHour, 42), opts);
  const Deployment dep = s.deploy(12.0);
  EXPECT_EQ(s.bestTheta(), 0x1.bc3a8daed086bp-1);
  const std::vector<unsigned> expected_alts{2, 2, 0, 0, 2, 0, 1, 1, 2,
                                            1, 2, 0, 0, 1, 2, 1, 0, 1};
  ASSERT_EQ(f.df.peCount(), expected_alts.size());
  for (std::size_t i = 0; i < expected_alts.size(); ++i) {
    EXPECT_EQ(dep.activeAlternate(PeId(static_cast<PeId::value_type>(i)))
                  .value(),
              expected_alts[i])
        << "pe " << i;
  }
  const std::map<std::string, int> expected_vms{
      {"m1.medium", 12}, {"m1.small", 9}, {"m1.xlarge", 15}};
  EXPECT_EQ(f.vmMultiset(), expected_vms);
  EXPECT_EQ(f.allocatedCores(), 81);
}

TEST(PlannerDeterminism, GoldenBruteForcePlanOnPaperGraph) {
  Fixture f(makePaperDataflow());
  BruteForceScheduler s(f.env(0.01, kSecondsPerHour));
  (void)s.deploy(3.0);
  EXPECT_EQ(s.plansExamined(), 766920u);
  const std::map<std::string, int> expected_vms{
      {"m1.large", 1}, {"m1.medium", 3}, {"m1.small", 53}};
  EXPECT_EQ(f.vmMultiset(), expected_vms);
  EXPECT_EQ(f.allocatedCores(), 58);
}

std::string runTraced(const SchedulerSpec& kind, bool reference_engine) {
  ExperimentConfig cfg;
  cfg.horizon_s = 0.5 * kSecondsPerHour;
  cfg.workload.mean_rate = 10.0;
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.workload.infra_variability = true;
  cfg.seed = 77;
  const Dataflow df = makePaperDataflow();
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  const SimulationEngine engine(df, cfg);
  const ExperimentResult r = reference_engine
                                 ? oracle::runReference(engine, kind, &sink)
                                 : engine.run(kind, &sink);
  oracle::expectIntervalInvariants(r, SimBackend::Fluid);
  return out.str();
}

// Each fixture is written by the product's fluid simulator; the
// reference simulator must emit the same bytes.
TEST(PlannerDeterminism, GoldenTraceAnnealingByteIdentical) {
  const std::string fixture = "sched/testdata/golden_trace_annealing.jsonl";
  expectMatchesGolden(runTraced(parseScheduler("annealing-static"), false),
                      fixture);
  EXPECT_EQ(runTraced(parseScheduler("annealing-static"), true),
            readGolden(fixture));
}

TEST(PlannerDeterminism, GoldenTraceGlobalAdaptiveByteIdentical) {
  const std::string fixture = "sched/testdata/golden_trace_global.jsonl";
  expectMatchesGolden(runTraced(parseScheduler("global"), false),
                      fixture);
  EXPECT_EQ(runTraced(parseScheduler("global"), true),
            readGolden(fixture));
}

}  // namespace
}  // namespace dds

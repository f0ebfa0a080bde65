#include "dds/sched/reactive_autoscaler.hpp"

#include <gtest/gtest.h>

#include "dds/core/engine.hpp"
#include "dds/dataflow/standard_graphs.hpp"
#include "dds/sim/simulator.hpp"

namespace dds {
namespace {

struct Fixture {
  explicit Fixture(Dataflow graph) : df(std::move(graph)) {}
  Dataflow df;
  CloudProvider cloud{awsCatalog2013()};
  TraceReplayer replayer = TraceReplayer::ideal();
  MonitoringService mon{cloud, replayer};

  SchedulerEnv env() {
    SchedulerEnv e;
    e.dataflow = &df;
    e.cloud = &cloud;
    e.monitor = &mon;
    return e;
  }
};

TEST(ReactiveAutoscaler, OptionsValidation) {
  ReactiveOptions bad;
  bad.backlog_hi_per_core = 1.0;
  bad.backlog_lo_per_core = 2.0;
  EXPECT_THROW(bad.validate(), PreconditionError);
  bad = {};
  bad.cooldown_intervals = 0;
  EXPECT_THROW(bad.validate(), PreconditionError);
}

TEST(ReactiveAutoscaler, RejectsInvalidEnv) {
  // The allocator member binds *dataflow and *cloud, so the env must be
  // validated before it is bound, not after.
  Fixture f(makePaperDataflow());
  SchedulerEnv env = f.env();
  env.dataflow = nullptr;
  EXPECT_THROW(ReactiveAutoscaler{env}, PreconditionError);
  env = f.env();
  env.cloud = nullptr;
  EXPECT_THROW(ReactiveAutoscaler{env}, PreconditionError);
}

TEST(ReactiveAutoscaler, ColdStartDeployment) {
  Fixture f(makePaperDataflow());
  ReactiveAutoscaler sched(f.env());
  const Deployment dep = sched.deploy(50.0);
  // No model: the 50 msg/s estimate is ignored, one core per PE.
  EXPECT_EQ(totalAllocatedCores(f.cloud), 4);
  // Best-value (not cost-aware) alternates.
  EXPECT_EQ(dep.activeAlternate(PeId(1)), AlternateId(0));
  EXPECT_EQ(dep.activeAlternate(PeId(2)), AlternateId(0));
}

TEST(ReactiveAutoscaler, GrowsUnderBacklogPressure) {
  Fixture f(makePaperDataflow());
  ReactiveAutoscaler sched(f.env());
  Deployment dep = sched.deploy(5.0);
  const int before = totalAllocatedCores(f.cloud);

  IntervalMetrics last;
  last.pe_stats.resize(4);
  last.pe_stats[1].backlog_msgs = 1000.0;  // E2 is drowning
  ObservedState st;
  st.interval = 1;
  st.now = 60.0;
  st.input_rate = 5.0;
  st.average_omega = 0.4;
  st.last_interval = &last;
  (void)sched.adapt(st, dep);
  EXPECT_EQ(totalAllocatedCores(f.cloud), before + 1);
  EXPECT_EQ(totalCores(f.cloud, PeId(1)), 2);
}

TEST(ReactiveAutoscaler, ShrinksOnlyAfterCooldown) {
  Fixture f(makePaperDataflow());
  ReactiveOptions opts;
  opts.cooldown_intervals = 3;
  ReactiveAutoscaler sched(f.env(), opts);
  Deployment dep = sched.deploy(5.0);
  // Give E2 an extra core to shed.
  const VmId vm = f.cloud.acquire(ResourceClassId(0), 0.0);
  f.cloud.allocateCore(vm, PeId(1));
  const int before = totalAllocatedCores(f.cloud);

  IntervalMetrics idle;
  idle.pe_stats.resize(4);
  for (auto& ps : idle.pe_stats) {
    ps.backlog_msgs = 0.0;
    ps.relative_throughput = 1.0;
  }
  ObservedState st;
  st.interval = 1;
  st.now = 60.0;
  st.input_rate = 1.0;
  st.average_omega = 1.0;
  st.last_interval = &idle;

  (void)sched.adapt(st, dep);
  (void)sched.adapt(st, dep);
  EXPECT_EQ(totalAllocatedCores(f.cloud), before);  // still cooling down
  (void)sched.adapt(st, dep);
  EXPECT_EQ(totalAllocatedCores(f.cloud), before - 1);
}

TEST(ReactiveAutoscaler, NeverDropsBelowOneCore) {
  Fixture f(makePaperDataflow());
  ReactiveOptions opts;
  opts.cooldown_intervals = 1;
  ReactiveAutoscaler sched(f.env(), opts);
  Deployment dep = sched.deploy(5.0);

  IntervalMetrics idle;
  idle.pe_stats.resize(4);
  for (auto& ps : idle.pe_stats) ps.relative_throughput = 1.0;
  ObservedState st;
  st.interval = 1;
  st.now = 60.0;
  st.input_rate = 0.1;
  st.average_omega = 1.0;
  st.last_interval = &idle;
  for (int i = 0; i < 10; ++i) (void)sched.adapt(st, dep);
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_GE(totalCores(f.cloud, PeId(p)), 1);
  }
}

TEST(ReactiveAutoscaler, EventuallyCatchesUpInClosedLoop) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg;
  cfg.horizon_s = 2.0 * kSecondsPerHour;
  cfg.workload.mean_rate = 10.0;
  const auto r = SimulationEngine(df, cfg).run(
      parseScheduler("reactive-autoscaler"));
  EXPECT_EQ(r.scheduler_name, "reactive-autoscaler");
  // From a one-core cold start it climbs; late intervals keep up.
  const auto& series = r.run.intervals();
  EXPECT_GE(series.back().omega, 0.6);
  EXPECT_GT(r.peak_cores, 10);
}

TEST(ReactiveAutoscaler, CostsMoreOrServesWorseThanGlobalHeuristic) {
  // The headline comparison: under the same workload the model-driven
  // global heuristic dominates the reactive baseline on the combined
  // objective (it also optimizes value, which the baseline cannot).
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg;
  cfg.horizon_s = 2.0 * kSecondsPerHour;
  cfg.workload.mean_rate = 20.0;
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.workload.infra_variability = true;
  const auto reactive =
      SimulationEngine(df, cfg).run(parseScheduler("reactive-autoscaler"));
  const auto global =
      SimulationEngine(df, cfg).run(parseScheduler("global"));
  EXPECT_GE(global.theta, reactive.theta - 1e-9);
}

}  // namespace
}  // namespace dds

// Bit-identity, golden-trace, and rebuild-accounting coverage for the
// cached SoA fluid kernel. The cached kernel is a memoization of the
// per-object walk in oracle::ReferenceFluidSimulator, not an
// approximation: per-PE stats, Omega/Gamma/cost and the trace bytes of an
// engine run must match byte-for-byte, with provisioning delays, spot
// preemption, migration pauses, forecasting and pre-acquisition layered
// on top. Every engine run also passes the per-interval invariants.
//
// The golden fixtures are written by the cached kernel (see golden.hpp
// for regeneration) and pin its bytes against both kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <variant>

#include "dds/common/rng.hpp"
#include "dds/core/engine.hpp"
#include "dds/dataflow/standard_graphs.hpp"
#include "dds/obs/jsonl_sink.hpp"
#include "dds/obs/trace_reader.hpp"
#include "dds/oracle/invariants.hpp"
#include "dds/oracle/reference_fluid_simulator.hpp"
#include "dds/oracle/run_reference.hpp"
#include "dds/sim/simulator.hpp"
#include "golden.hpp"

namespace dds {
namespace {

// --- cached engine == reference engine, end to end -------------------------

struct TracedRun {
  std::string trace;
  ExperimentResult result;
};

TracedRun runTracedFluid(const Dataflow& df, const ExperimentConfig& cfg,
                         SchedulerSpec kind, bool reference_engine) {
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  const SimulationEngine engine(df, cfg);
  ExperimentResult r = reference_engine
                           ? oracle::runReference(engine, kind, &sink)
                           : engine.run(kind, &sink);
  oracle::expectIntervalInvariants(r, SimBackend::Fluid);
  return {out.str(), std::move(r)};
}

/// Runs both engines and checks them bit-identical; returns the product
/// run for further checks.
TracedRun expectIdenticalRuns(const Dataflow& df, const ExperimentConfig& cfg,
                              SchedulerSpec kind, const std::string& label) {
  const TracedRun ref = runTracedFluid(df, cfg, kind, true);
  TracedRun cached = runTracedFluid(df, cfg, kind, false);
  EXPECT_FALSE(cached.trace.empty()) << label;
  EXPECT_EQ(cached.trace, ref.trace) << label;
  // Bitwise-equal scalars, not just matching trace bytes.
  EXPECT_EQ(cached.result.average_omega, ref.result.average_omega) << label;
  EXPECT_EQ(cached.result.average_gamma, ref.result.average_gamma) << label;
  EXPECT_EQ(cached.result.total_cost, ref.result.total_cost) << label;
  EXPECT_EQ(cached.result.theta, ref.result.theta) << label;
  EXPECT_EQ(cached.result.peak_vms, ref.result.peak_vms) << label;
  EXPECT_EQ(cached.result.peak_cores, ref.result.peak_cores) << label;
  return cached;
}

/// Largest VM id a traced run acquired.
std::uint32_t maxAcquiredVm(const std::string& trace) {
  std::istringstream in(trace);
  std::uint32_t max_vm = 0;
  for (const obs::TraceEvent& ev : obs::readTraceJsonl(in)) {
    if (const auto* a = std::get_if<obs::VmAcquireEvent>(&ev)) {
      max_vm = std::max(max_vm, a->vm);
    }
  }
  return max_vm;
}

TEST(FluidIdentity, RandomGraphsMatchReferenceAcrossSeeds) {
  for (std::uint64_t s = 1; s <= 6; ++s) {
    Rng rng(s);
    const Dataflow df =
        makeLayeredDataflow(2 + s % 3, 2 + s % 2, 2, rng);
    ExperimentConfig cfg;
    cfg.horizon_s = 12.0 * 60.0;
    cfg.seed = 500 + s;
    cfg.workload.mean_rate = 8.0 + static_cast<double>(s);
    cfg.workload.profile = ProfileKind::PeriodicWave;
    cfg.workload.infra_variability = true;
    if (s % 2 == 1) {
      // A fault model collapses monitoring validity windows to the query
      // instant: the cached kernel must re-query everything per interval.
      cfg.faults.straggler_mtbf_hours = 0.2;
      cfg.faults.partition_mtbf_hours = 0.3;
    }
    if (s % 3 == 0) {
      cfg.elasticity.provisioning_delay_s = 120.0;
      cfg.elasticity.spot_discount = 0.6;
      cfg.elasticity.spot_preemption_mtbf_h = 0.3;
      cfg.elasticity.pe_state_mb = 20.0;
    }
    const SchedulerSpec kind = (s % 2 == 0) ? parseScheduler("global")
                                            : parseScheduler("local");
    expectIdenticalRuns(df, cfg, kind, "seed " + std::to_string(s));
  }
}

TEST(FluidIdentity, PaperGraphStaticAndAdaptive) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg;
  cfg.horizon_s = 20.0 * 60.0;
  cfg.seed = 4242;
  cfg.workload.mean_rate = 12.0;
  cfg.workload.profile = ProfileKind::RandomWalk;
  cfg.workload.infra_variability = true;
  expectIdenticalRuns(df, cfg, parseScheduler("global-static"), "static");
  expectIdenticalRuns(df, cfg, parseScheduler("global"), "adaptive");
}

TEST(FluidIdentity, ReplayedPairBandwidthCapsRemoteFlow) {
  // 20 MB messages: a link carries a few msgs/s, so the replayed pair
  // bandwidths cap remote flow in every interval of this run, and each
  // cached pair value reaches the trace. No crashes or preemptions: the
  // same pairs' slots are re-read across an hour of trace windows.
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg;
  cfg.horizon_s = kSecondsPerHour;
  cfg.seed = 4242;
  cfg.workload.mean_rate = 12.0;
  cfg.workload.profile = ProfileKind::RandomWalk;
  cfg.workload.infra_variability = true;
  cfg.workload.msg_size_bytes = 20.0e6;
  expectIdenticalRuns(df, cfg, parseScheduler("global"), "link caps");
}

TEST(FluidIdentity, VmChurnPastOneHundredIdsMatchesReference) {
  // Crashes and spot reclamations retire VMs and acquire replacements
  // under fresh ids, so the pair-slot table indexed [producer VM][consumer
  // VM] grows its outer table and its rows across many rebuilds, while
  // replayed traces keep every pair's window moving.
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg;
  cfg.horizon_s = 2.0 * kSecondsPerHour;
  cfg.seed = 31;
  cfg.workload.mean_rate = 12.0;
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.workload.infra_variability = true;
  // 20 MB messages: links carry a few msgs/s, so the replayed pair
  // bandwidths cap remote flow and the pair slots' values reach the
  // trace (at the 100 kB default no link cap binds).
  cfg.workload.msg_size_bytes = 20.0e6;
  cfg.faults.vm_mtbf_hours = 0.5;
  cfg.elasticity.spot_discount = 0.6;
  cfg.elasticity.spot_fraction = 0.5;
  cfg.elasticity.spot_preemption_mtbf_h = 0.2;
  cfg.elasticity.spot_notice_s = 60.0;
  const TracedRun run =
      expectIdenticalRuns(df, cfg, parseScheduler("global"), "churn");
  EXPECT_GT(run.result.vm_failures, 0);
  EXPECT_GT(run.result.preemptions, 0);
  EXPECT_GT(maxAcquiredVm(run.trace), 100u);
}

// --- golden engine traces --------------------------------------------------

constexpr const char* kForecastFixture =
    "sim/testdata/golden_fluid_forecast_trace.jsonl";
constexpr const char* kElasticityFixture =
    "sim/testdata/golden_fluid_elasticity_trace.jsonl";

ExperimentConfig forecastOnConfig() {
  ExperimentConfig cfg;
  cfg.horizon_s = 30.0 * 60.0;
  cfg.seed = 77;
  cfg.workload.mean_rate = 10.0;
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.workload.infra_variability = true;
  cfg.forecast.model = ForecastModel::Ewma;
  cfg.elasticity.provisioning_delay_s = 120.0;
  return cfg;
}

ExperimentConfig elasticityOnConfig() {
  ExperimentConfig cfg;
  cfg.horizon_s = 30.0 * 60.0;
  cfg.seed = 99;
  cfg.workload.mean_rate = 10.0;
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.workload.infra_variability = true;
  cfg.elasticity.provisioning_delay_s = 180.0;
  cfg.elasticity.spot_discount = 0.6;
  cfg.elasticity.spot_preemption_mtbf_h = 0.3;
  cfg.elasticity.spot_notice_s = 120.0;
  cfg.elasticity.pe_state_mb = 50.0;
  return cfg;
}

TEST(FluidGolden, ForecastOnCachedTraceByteIdentical) {
  const TracedRun run =
      runTracedFluid(makePaperDataflow(), forecastOnConfig(),
                     parseScheduler("global-predictive"), false);
  expectMatchesGolden(run.trace, kForecastFixture);
}

TEST(FluidGolden, ForecastOnReferenceTraceByteIdentical) {
  // Same fixture on purpose: the two kernels must emit the same bytes.
  const TracedRun run =
      runTracedFluid(makePaperDataflow(), forecastOnConfig(),
                     parseScheduler("global-predictive"), true);
  EXPECT_EQ(run.trace, readGolden(kForecastFixture));
}

TEST(FluidGolden, ElasticityOnCachedTraceByteIdentical) {
  const TracedRun run =
      runTracedFluid(makePaperDataflow(), elasticityOnConfig(),
                     parseScheduler("global"), false);
  expectMatchesGolden(run.trace, kElasticityFixture);
}

TEST(FluidGolden, ElasticityOnReferenceTraceByteIdentical) {
  const TracedRun run =
      runTracedFluid(makePaperDataflow(), elasticityOnConfig(),
                     parseScheduler("global"), true);
  EXPECT_EQ(run.trace, readGolden(kElasticityFixture));
}

// --- rebuild accounting ----------------------------------------------------

/// Two-stage pipeline: src (cost 0.1, sel 1) -> sink (cost 0.1, sel 1).
Dataflow makePipeline() {
  DataflowBuilder b("pipe");
  const PeId a = b.addPe("src", {{"src", 1.0, 0.1, 1.0}});
  const PeId c = b.addPe("sink", {{"sink", 1.0, 0.1, 1.0}});
  b.addEdge(a, c);
  return std::move(b).build();
}

struct Fixture {
  explicit Fixture(Dataflow graph) : df(std::move(graph)) {}
  Dataflow df;
  CloudProvider cloud{awsCatalog2013()};
  TraceReplayer replayer = TraceReplayer::ideal();
  MonitoringService mon{cloud, replayer};

  void giveSmallCores(PeId pe, int n) {
    for (int i = 0; i < n; ++i) {
      const VmId vm = cloud.acquire(ResourceClassId(0), 0.0);
      cloud.allocateCore(vm, pe);
    }
  }
};

TEST(FluidKernelRebuilds, CachedRebuildsOnlyOnLedgerChange) {
  Fixture f(makePipeline());
  f.giveSmallCores(PeId(0), 1);
  f.giveSmallCores(PeId(1), 1);
  Deployment dep(f.df);
  DataflowSimulator sim(f.df, f.cloud, f.mon, {});
  (void)sim.step(0, 5.0, dep);
  (void)sim.step(1, 5.0, dep);
  (void)sim.step(2, 5.0, dep);
  EXPECT_EQ(sim.kernelRebuilds(), 1u);
  // Any ledger mutation bumps the generation and forces one rebuild.
  f.giveSmallCores(PeId(1), 1);
  (void)sim.step(3, 5.0, dep);
  (void)sim.step(4, 5.0, dep);
  EXPECT_EQ(sim.kernelRebuilds(), 2u);
}

TEST(FluidKernelRebuilds, PairSlotTableStaysLinearUnderVmChurn) {
  // Every interval moves both PEs onto fresh VMs and stops the old ones
  // (crash, preemption and scale-in churn do the same), so VM ids climb
  // and are never reused. The stopped producers' rows must be freed, or
  // the table would hold ~(VMs ever acquired)^2 / 2 entries. The oracle
  // steps the same ledger alongside.
  Fixture f(makePipeline());
  Deployment dep(f.df);
  DataflowSimulator sim(f.df, f.cloud, f.mon, {});
  oracle::ReferenceFluidSimulator ref(f.df, f.cloud, f.mon, {});
  constexpr IntervalIndex kIntervals = 500;
  for (IntervalIndex i = 0; i < kIntervals; ++i) {
    const SimTime t = static_cast<SimTime>(i) * 60.0;
    const std::vector<VmId> retiring = f.cloud.activeVms();
    for (const PeId pe : {PeId(0), PeId(1)}) {
      f.cloud.allocateCore(f.cloud.acquire(ResourceClassId(0), t), pe);
    }
    for (const VmId vm : retiring) {
      for (const PeId pe : {PeId(0), PeId(1)}) {
        (void)f.cloud.releaseAllCoresOf(vm, pe);
      }
      f.cloud.release(vm, t);
    }
    const IntervalMetrics got = sim.step(i, 5.0, dep);
    const IntervalMetrics want = ref.step(i, 5.0, dep);
    ASSERT_EQ(got.omega, want.omega) << "interval " << i;
  }
  ASSERT_EQ(f.cloud.instanceCount(), 2u * kIntervals);
  EXPECT_EQ(sim.kernelRebuilds(), static_cast<std::uint64_t>(kIntervals));
  // One running producer whose row reaches the newest id (a row's
  // capacity may be up to twice its length).
  EXPECT_LE(sim.pairSlotTableEntries(),
            2 * f.cloud.activeIds().size() * f.cloud.instanceCount());
}

/// Replays a run's trace into the ledger image the fluid kernel indexes
/// (the active VMs and each one's cores per PE) and counts the intervals
/// whose image at the step differs from the previous interval's. Every
/// runtime ledger mutation is traced: core grants and releases as
/// CoreAlloc, evacuations as the VmRelease that retires the VM, crashes
/// and preemptions as VmRelease too. Deploy-time repacks are not, but
/// they all land before the first step, which always rebuilds; a constant
/// offset in the image does not change which intervals differ.
class LedgerImageSink final : public obs::TraceSink {
 public:
  void emit(const obs::TraceEvent& event) override {
    std::visit([this](const auto& e) { on(e); }, event);
  }
  [[nodiscard]] int changedIntervals() const { return changed_; }

 private:
  using Image = std::map<std::uint32_t, std::map<std::uint32_t, std::int64_t>>;

  void on(const obs::VmAcquireEvent& e) { image_[e.vm]; }
  void on(const obs::VmReleaseEvent& e) { image_.erase(e.vm); }
  void on(const obs::CoreAllocEvent& e) {
    auto& cores = image_[e.vm];
    if ((cores[e.pe] += e.delta) == 0) cores.erase(e.pe);
  }
  void on(const obs::IntervalEndEvent& e) {
    if (e.interval > 0 && image_ != previous_) ++changed_;
    previous_ = image_;
  }
  template <typename Event>
  void on(const Event&) {}

  Image image_;
  Image previous_;
  int changed_ = 0;
};

TEST(FluidKernelRebuilds, EngineRunRebuildsOnlyOnRealLedgerChanges) {
  // The kernel rebuilds on the first step and then exactly when the
  // ledger changed since the last one: read-only lookups by schedulers,
  // probes and the fault plan must not move the ledger generation.
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg;
  cfg.horizon_s = 2.0 * kSecondsPerHour;
  cfg.workload.mean_rate = 10.0;
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.workload.infra_variability = true;
  cfg.faults.vm_mtbf_hours = 3.0;
  cfg.seed = 11;
  for (const SchedulerSpec& kind :
       {parseScheduler("global"), parseScheduler("reactive-autoscaler")}) {
    LedgerImageSink sink;
    const ExperimentResult r = SimulationEngine(df, cfg).run(kind, &sink);
    const auto rebuilds = std::find_if(
        r.metrics.begin(), r.metrics.end(), [](const obs::MetricSample& m) {
          return m.name == "fluid.kernel_rebuilds";
        });
    ASSERT_NE(rebuilds, r.metrics.end());
    EXPECT_GT(r.vm_failures, 0) << schedulerName(kind);
    EXPECT_GT(sink.changedIntervals(), 0) << schedulerName(kind);
    EXPECT_EQ(rebuilds->value, 1.0 + sink.changedIntervals())
        << schedulerName(kind);
  }
}

TEST(FluidKernelRebuilds, ReferenceSnapshotsEveryInterval) {
  Fixture f(makePipeline());
  f.giveSmallCores(PeId(0), 1);
  Deployment dep(f.df);
  oracle::ReferenceFluidSimulator sim(f.df, f.cloud, f.mon, {});
  for (IntervalIndex i = 0; i < 4; ++i) (void)sim.step(i, 5.0, dep);
  EXPECT_EQ(sim.kernelRebuilds(), 4u);
}

/// Steps 1 and 2 of a pipeline run with a backlog migration and a
/// service pause between steps 0 and 1.
template <class Simulator>
std::pair<IntervalMetrics, IntervalMetrics> migrateAndPause() {
  Fixture f(makePipeline());
  f.giveSmallCores(PeId(0), 1);
  f.giveSmallCores(PeId(1), 1);
  Deployment dep(f.df);
  Simulator sim(f.df, f.cloud, f.mon, SimConfig{});
  (void)sim.step(0, 20.0, dep);
  sim.migrateBacklog(PeId(0), 0.5);
  sim.pauseService(PeId(0), 45.0);
  const IntervalMetrics a = sim.step(1, 20.0, dep);
  const IntervalMetrics b = sim.step(2, 5.0, dep);
  return {a, b};
}

TEST(FluidKernelRebuilds, MigrationAndPauseComposeIdentically) {
  // Mid-run queue surgery (what spot drains and scale-in do) must leave
  // both kernels in identical states.
  const auto ref = migrateAndPause<oracle::ReferenceFluidSimulator>();
  const auto cached = migrateAndPause<DataflowSimulator>();
  for (std::size_t i = 0; i < 2; ++i) {
    const PeIntervalStats& r =
        (i == 0 ? ref.first : ref.second).pe_stats[0];
    const PeIntervalStats& c =
        (i == 0 ? cached.first : cached.second).pe_stats[0];
    EXPECT_EQ(c.processed_rate, r.processed_rate);
    EXPECT_EQ(c.backlog_msgs, r.backlog_msgs);
    EXPECT_EQ(c.output_rate, r.output_rate);
  }
  EXPECT_EQ(cached.second.omega, ref.second.omega);
}

}  // namespace
}  // namespace dds

// End-to-end rapid-elasticity realism: provisioning delays, the spot
// market with drain-on-notice recovery, and migration downtime — plus the
// determinism guarantees the subsystem rides on (seed purity, --jobs
// bit-identity, engine-choice bit-identity, a golden preemption-heavy
// trace, and byte-level inertness when every knob is off).
#include <gtest/gtest.h>

#include <sstream>

#include "dds/core/engine.hpp"
#include "dds/dataflow/standard_graphs.hpp"
#include "dds/exp/campaign.hpp"
#include "dds/obs/jsonl_sink.hpp"
#include "dds/oracle/invariants.hpp"
#include "dds/oracle/run_reference.hpp"
#include "golden.hpp"

namespace dds {
namespace {

/// A spot-heavy hour: everything runs on deeply discounted preemptible
/// capacity with a 15-minute reclaim MTBF, so the provider takes VMs away
/// several times per run and the 30 s latency SLO is under real pressure.
ExperimentConfig preemptionHeavyConfig() {
  ExperimentConfig cfg;
  cfg.horizon_s = 1.0 * kSecondsPerHour;
  cfg.workload.mean_rate = 8.0;
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.seed = 2013;
  cfg.heuristic.max_queue_delay_s = 30.0;
  cfg.elasticity.spot_discount = 0.7;
  cfg.elasticity.spot_fraction = 1.0;
  cfg.elasticity.spot_preemption_mtbf_h = 0.25;
  cfg.elasticity.spot_notice_s = 120.0;
  cfg.elasticity.pe_state_mb = 50.0;
  cfg.elasticity.migration_bandwidth_mbps = 100.0;
  cfg.resilience.graceful_degradation = true;
  return cfg;
}

void expectBitIdentical(const ExperimentResult& a,
                        const ExperimentResult& b) {
  EXPECT_EQ(a.scheduler_name, b.scheduler_name);
  EXPECT_EQ(a.average_omega, b.average_omega);
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.theta, b.theta);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.resilience.preemption_drains, b.resilience.preemption_drains);
  EXPECT_EQ(a.messages_lost, b.messages_lost);
  EXPECT_EQ(a.recovery.slo_violation_s, b.recovery.slo_violation_s);
  EXPECT_EQ(a.recovery.mttr_s, b.recovery.mttr_s);
  EXPECT_EQ(a.recovery.p95_episode_s, b.recovery.p95_episode_s);
  ASSERT_EQ(a.run.intervals().size(), b.run.intervals().size());
  for (std::size_t i = 0; i < a.run.intervals().size(); ++i) {
    EXPECT_EQ(a.run.intervals()[i].omega, b.run.intervals()[i].omega) << i;
    EXPECT_EQ(a.run.intervals()[i].cost_cumulative,
              b.run.intervals()[i].cost_cumulative)
        << i;
  }
}

TEST(ElasticityEndToEnd, PreemptionsFireAndTheSchedulerDrains) {
  const Dataflow df = makePaperDataflow();
  const auto cfg = preemptionHeavyConfig();
  const auto r = SimulationEngine(df, cfg).run(parseScheduler("global"));
  // A 15-minute MTBF over an hour of all-spot capacity must reclaim VMs.
  EXPECT_GT(r.preemptions, 0);
  // The heuristic sees the notice and evacuates before the reclaim.
  EXPECT_GT(r.resilience.preemption_drains, 0);
  // Drained state migrates instead of dying with the VM; the run keeps
  // most of its availability.
  EXPECT_GT(r.recovery.availability, 0.5);
  EXPECT_GE(r.recovery.slo_violation_s, 0.0);
}

TEST(ElasticityEndToEnd, SpotCapacityIsCheaperThanOnDemand) {
  const Dataflow df = makePaperDataflow();
  auto cfg = preemptionHeavyConfig();
  // Same market without reclamations: pure price comparison.
  cfg.elasticity.spot_preemption_mtbf_h = 0.0;
  const auto spot =
      SimulationEngine(df, cfg).run(parseScheduler("global"));
  cfg.elasticity.spot_discount = 0.0;
  cfg.elasticity.spot_fraction = 0.0;
  const auto on_demand =
      SimulationEngine(df, cfg).run(parseScheduler("global"));
  EXPECT_LT(spot.total_cost, on_demand.total_cost);
}

TEST(ElasticityEndToEnd, SameSeedIsBitIdentical) {
  const Dataflow df = makePaperDataflow();
  const auto cfg = preemptionHeavyConfig();
  const auto r1 = SimulationEngine(df, cfg).run(parseScheduler("global"));
  const auto r2 = SimulationEngine(df, cfg).run(parseScheduler("global"));
  expectBitIdentical(r1, r2);
}

TEST(ElasticityEndToEnd, DifferentSeedsMovePreemptions) {
  const Dataflow df = makePaperDataflow();
  auto cfg = preemptionHeavyConfig();
  const auto r1 = SimulationEngine(df, cfg).run(parseScheduler("global"));
  cfg.seed = 2014;
  const auto r2 = SimulationEngine(df, cfg).run(parseScheduler("global"));
  const bool differs = r1.preemptions != r2.preemptions ||
                       r1.total_cost != r2.total_cost ||
                       r1.average_omega != r2.average_omega;
  EXPECT_TRUE(differs);
}

TEST(ElasticityEndToEnd, EveryRegisteredSchedulerCompletes) {
  const Dataflow df = makePaperDataflow();
  auto cfg = preemptionHeavyConfig();
  cfg.horizon_s = 20.0 * kSecondsPerMinute;
  cfg.elasticity.provisioning_delay_s = 60.0;
  cfg.elasticity.provisioning_delay_per_core_s = 15.0;
  for (const SchedulerSpec& kind : allSchedulers()) {
    // The exhaustive static planner legitimately gives up on this rate;
    // everything else must finish the elasticity-heavy run.
    if (kind == parseScheduler("brute-force-static")) continue;
    const auto r = SimulationEngine(df, cfg).run(kind);
    EXPECT_FALSE(r.run.intervals().empty()) << r.scheduler_name;
    EXPECT_GT(r.total_cost, 0.0) << r.scheduler_name;
  }
}

TEST(ElasticityDelays, PerCoreTermSlowsLargeClassesOnly) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig base;
  base.horizon_s = 0.5 * kSecondsPerHour;
  base.workload.mean_rate = 10.0;
  base.seed = 91;
  base.elasticity.provisioning_delay_s = 60.0;
  ExperimentConfig per_core = base;
  per_core.elasticity.provisioning_delay_per_core_s = 120.0;
  const auto flat =
      SimulationEngine(df, base).run(parseScheduler("global"));
  const auto scaled =
      SimulationEngine(df, per_core).run(parseScheduler("global"));
  // The heuristic buys multi-core classes: a per-core term changes the
  // delay draws and with them the run.
  EXPECT_NE(flat.average_omega == scaled.average_omega &&
                flat.total_cost == scaled.total_cost,
            true);
}

// --- migration downtime ---

TEST(ElasticityMigration, StateSizeCostsThroughput) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cheap = preemptionHeavyConfig();
  cheap.elasticity.pe_state_mb = 0.0;
  ExperimentConfig heavy = preemptionHeavyConfig();
  heavy.elasticity.pe_state_mb = 4000.0;  // 320 s of downtime per full move
  const auto instant =
      SimulationEngine(df, cheap).run(parseScheduler("global"));
  const auto paused =
      SimulationEngine(df, heavy).run(parseScheduler("global"));
  // Heavier state can only hurt: strictly more service-seconds lost.
  EXPECT_LE(paused.average_omega, instant.average_omega);
  EXPECT_NE(paused.average_omega, instant.average_omega);
}

TEST(ElasticityMigration, BandwidthIsIrrelevantWhenStateIsZero) {
  // With pe_state_mb = 0 the migration model must be a byte-level no-op:
  // changing the bandwidth knob cannot perturb the trace.
  const Dataflow df = makePaperDataflow();
  auto traced = [&df](double bandwidth) {
    ExperimentConfig cfg;
    cfg.horizon_s = 10.0 * kSecondsPerMinute;
    cfg.workload.mean_rate = 10.0;
    cfg.workload.profile = ProfileKind::PeriodicWave;
    cfg.seed = 77;
    cfg.elasticity.pe_state_mb = 0.0;
    cfg.elasticity.migration_bandwidth_mbps = bandwidth;
    std::ostringstream out;
    obs::JsonlTraceSink sink(out);
    (void)SimulationEngine(df, cfg).run(parseScheduler("global"),
                                        &sink);
    return out.str();
  };
  EXPECT_EQ(traced(100.0), traced(0.001));
}

TEST(ElasticityMigration, EventBackendEnginesStayBitIdentical) {
  // Migration pauses are part of the event model: the product simulator
  // and the reference one must agree byte-for-byte with pe_state_mb > 0,
  // exactly as they do without it.
  const Dataflow df = makePaperDataflow();
  auto traced = [&df](bool reference) {
    ExperimentConfig cfg;
    cfg.horizon_s = 10.0 * kSecondsPerMinute;
    cfg.workload.mean_rate = 10.0;
    cfg.workload.profile = ProfileKind::PeriodicWave;
    cfg.seed = 77;
    cfg.backend = SimBackend::Event;
    cfg.elasticity.pe_state_mb = 200.0;
    cfg.elasticity.migration_bandwidth_mbps = 50.0;
    std::ostringstream out;
    obs::JsonlTraceSink sink(out);
    const SimulationEngine engine(df, cfg);
    const ExperimentResult r =
        reference
            ? oracle::runReference(engine, parseScheduler("global"), &sink)
            : engine.run(parseScheduler("global"), &sink);
    oracle::expectIntervalInvariants(r, SimBackend::Event);
    return out.str();
  };
  EXPECT_EQ(traced(false), traced(true));
}

// --- campaign parallelism ---

TEST(ElasticityCampaign, JobsKnobDoesNotPerturbResults) {
  const Dataflow df = makePaperDataflow();
  auto cfg = preemptionHeavyConfig();
  cfg.horizon_s = 20.0 * kSecondsPerMinute;
  Campaign campaign;
  for (const SchedulerSpec& kind :
       {parseScheduler("global"), parseScheduler("local"),
        parseScheduler("reactive-autoscaler")}) {
    campaign.add({.dataflow = &df, .config = cfg, .kind = kind});
  }
  const auto serial = runCampaign(campaign, {.jobs = 1});
  const auto parallel = runCampaign(campaign, {.jobs = 4});
  ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size());
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
    ASSERT_TRUE(serial.outcomes[i].ok) << serial.outcomes[i].error;
    ASSERT_TRUE(parallel.outcomes[i].ok) << parallel.outcomes[i].error;
    expectBitIdentical(serial.outcomes[i].result,
                       parallel.outcomes[i].result);
  }
}

// --- golden preemption-heavy trace ---

TEST(ElasticityGolden, PreemptionHeavyTraceByteIdentical) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg = preemptionHeavyConfig();
  cfg.horizon_s = 20.0 * kSecondsPerMinute;
  cfg.elasticity.provisioning_delay_s = 60.0;
  const SimulationEngine engine(df, cfg);
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  oracle::expectIntervalInvariants(engine.run(parseScheduler("global"), &sink),
                                   SimBackend::Fluid);
  const std::string trace = out.str();
  // The run exercises the whole event vocabulary before the byte compare.
  for (const char* needle :
       {"preemption_notice", "\"preemption\"", "provisioning_complete",
        "migration_begin", "migration_end"}) {
    EXPECT_NE(trace.find(needle), std::string::npos) << needle;
  }
  const char* fixture = "faults/testdata/golden_preemption_trace.jsonl";
  expectMatchesGolden(trace, fixture);
  // The reference simulators must emit the same bytes.
  std::ostringstream ref_out;
  obs::JsonlTraceSink ref_sink(ref_out);
  oracle::expectIntervalInvariants(
      oracle::runReference(engine, parseScheduler("global"), &ref_sink),
      SimBackend::Fluid);
  EXPECT_EQ(ref_out.str(), readGolden(fixture));
}

}  // namespace
}  // namespace dds

#include "dds/faults/fault_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "dds/common/rng.hpp"
#include "dds/common/stats.hpp"
#include "dds/core/engine.hpp"
#include "dds/dataflow/standard_graphs.hpp"
#include "dds/sched/allocation.hpp"
#include "dds/sched/heuristic_scheduler.hpp"
#include "dds/sched/resilience.hpp"

namespace dds {
namespace {

constexpr std::uint64_t kSeed = 11;

FaultConfig allFamilies() {
  FaultConfig cfg;
  cfg.vm_mtbf_hours = 4.0;
  cfg.straggler_mtbf_hours = 1.0;
  cfg.straggler_factor = 0.3;
  cfg.straggler_duration_s = 600.0;
  cfg.acquisition_failure_prob = 0.25;
  cfg.partition_mtbf_hours = 2.0;
  cfg.partition_duration_s = 120.0;
  return cfg;
}

/// The provisioning lag, the other half of the acquisition family.
ElasticityConfig delayed() {
  ElasticityConfig el;
  el.provisioning_delay_s = 120.0;
  return el;
}

FaultPlan allFamiliesPlan(std::uint64_t seed = kSeed) {
  return FaultPlan(seed, allFamilies(), delayed());
}

TEST(FaultConfig, EnablementPredicates) {
  EXPECT_FALSE(FaultConfig{}.anyEnabled());
  const FaultConfig on = allFamilies();
  EXPECT_TRUE(on.anyEnabled());
  EXPECT_TRUE(on.crashesEnabled());
  EXPECT_TRUE(on.stragglersEnabled());
  EXPECT_TRUE(on.rejectionsEnabled());
  EXPECT_TRUE(on.partitionsEnabled());
  EXPECT_FALSE(ElasticityConfig{}.delaysEnabled());
  EXPECT_FALSE(ElasticityConfig{}.preemptionsEnabled());
  EXPECT_TRUE(delayed().delaysEnabled());
  // Rejections and provisioning lag both perturb acquisitions.
  EXPECT_TRUE(FaultPlan(kSeed, {}, delayed()).perturbsAcquisition());
  EXPECT_TRUE(FaultPlan(kSeed, on, {}).perturbsAcquisition());
}

/// One bad value of a fault, elasticity, resilience or heuristic knob and
/// the one message its struct's appendErrors gives for it.
struct BadKnob {
  const char* what;
  void (*set)(ExperimentConfig&);
  const char* message;
};

const BadKnob kBadKnobs[] = {
    {"crash MTBF", [](ExperimentConfig& c) { c.faults.vm_mtbf_hours = -1.0; },
     "MTBF must be non-negative"},
    {"straggler MTBF",
     [](ExperimentConfig& c) { c.faults.straggler_mtbf_hours = -1.0; },
     "straggler MTBF must be non-negative"},
    // A "straggler" at full speed is not one.
    {"straggler factor",
     [](ExperimentConfig& c) { c.faults.straggler_factor = 1.0; },
     "straggler factor must be in [0, 1)"},
    {"straggler duration",
     [](ExperimentConfig& c) {
       c.faults.straggler_mtbf_hours = 1.0;
       c.faults.straggler_duration_s = 0.0;
     },
     "straggler duration must be positive"},
    // Certain rejection would deadlock every scheduler.
    {"acquisition failure probability",
     [](ExperimentConfig& c) { c.faults.acquisition_failure_prob = 1.0; },
     "acquisition failure probability must be in [0, 1)"},
    {"partition MTBF",
     [](ExperimentConfig& c) { c.faults.partition_mtbf_hours = -1.0; },
     "partition MTBF must be non-negative"},
    {"partition duration",
     [](ExperimentConfig& c) {
       c.faults.partition_mtbf_hours = 2.0;
       c.faults.partition_duration_s = -1.0;
     },
     "partition duration must be positive"},
    {"provisioning delay",
     [](ExperimentConfig& c) { c.elasticity.provisioning_delay_s = -1.0; },
     "elasticity provisioning delay must be non-negative"},
    {"per-core provisioning delay",
     [](ExperimentConfig& c) {
       c.elasticity.provisioning_delay_per_core_s = -1.0;
     },
     "per-core provisioning delay must be non-negative"},
    {"spot discount",
     [](ExperimentConfig& c) { c.elasticity.spot_discount = 1.0; },
     "spot discount must be in [0, 1)"},
    {"spot preemption MTBF",
     [](ExperimentConfig& c) { c.elasticity.spot_preemption_mtbf_h = -1.0; },
     "spot preemption MTBF must be non-negative"},
    {"spot notice",
     [](ExperimentConfig& c) { c.elasticity.spot_notice_s = -1.0; },
     "spot notice window must be non-negative"},
    {"spot fraction",
     [](ExperimentConfig& c) { c.elasticity.spot_fraction = 1.5; },
     "spot fraction must be in [0, 1]"},
    {"preemption without a spot tier",
     [](ExperimentConfig& c) { c.elasticity.spot_preemption_mtbf_h = 2.0; },
     "spot preemption requires a spot tier (set the spot discount)"},
    {"PE state size",
     [](ExperimentConfig& c) { c.elasticity.pe_state_mb = -1.0; },
     "per-PE state size must be non-negative"},
    {"migration bandwidth",
     [](ExperimentConfig& c) { c.elasticity.migration_bandwidth_mbps = 0.0; },
     "migration bandwidth must be positive"},
    {"acquisition retries",
     [](ExperimentConfig& c) { c.resilience.acquisition_max_retries = 0; },
     "acquisition retries must be at least 1"},
    {"acquisition backoff",
     [](ExperimentConfig& c) { c.resilience.acquisition_backoff_s = -1.0; },
     "acquisition backoff must be non-negative"},
    {"quarantine threshold",
     [](ExperimentConfig& c) { c.resilience.quarantine_threshold = 1.0; },
     "straggler threshold must be in [0, 1)"},
    {"quarantine probes",
     [](ExperimentConfig& c) { c.resilience.quarantine_probes = 0; },
     "straggler probe count must be at least 1"},
    {"alternate period",
     [](ExperimentConfig& c) { c.heuristic.alternate_period = 0; },
     "alternate period must be >= 1"},
    {"resource period",
     [](ExperimentConfig& c) { c.heuristic.resource_period = 0; },
     "resource period must be >= 1"},
    {"queue-delay SLA",
     [](ExperimentConfig& c) { c.heuristic.max_queue_delay_s = -1.0; },
     "queue-delay SLA must be non-negative"},
    {"pre-acquisition margin",
     [](ExperimentConfig& c) { c.heuristic.preacquire_margin = -1.0; },
     "pre-acquisition margin must be non-negative"},
};

/// The message of the PreconditionError `construct` throws; empty when it
/// throws none.
template <class Construct>
std::string preconditionMessage(Construct construct) {
  try {
    construct();
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

// Each knob struct has one rule set, its appendErrors: the config-wide
// check and the constructors that take the struct reject a bad value with
// the same message.
TEST(KnobValidation, ConfigAndConstructorsRejectWithOneMessage) {
  const Dataflow df = makeChainDataflow(2, 1);
  CloudProvider cloud(awsCatalog2013());
  const TraceReplayer replayer = TraceReplayer::ideal();
  const MonitoringService monitor(cloud, replayer);
  SchedulerEnv env;
  env.dataflow = &df;
  env.cloud = &cloud;
  env.monitor = &monitor;
  for (const BadKnob& bad : kBadKnobs) {
    SCOPED_TRACE(bad.what);
    ExperimentConfig cfg;
    bad.set(cfg);
    EXPECT_EQ(cfg.validationErrors(), std::vector<std::string>{bad.message});
    std::vector<std::string> thrown;
    if (cfg.heuristic != HeuristicConfig{}) {
      thrown.push_back(preconditionMessage([&] {
        (void)HeuristicScheduler(env, Strategy::Global,
                                 SchedulerSpec::Mode::Adaptive, cfg.heuristic);
      }));
    } else if (cfg.resilience != ResilienceConfig{}) {
      thrown.push_back(preconditionMessage(
          [&] { (void)StragglerGuard(cloud, monitor, cfg.resilience); }));
      thrown.push_back(preconditionMessage([&] {
        ResourceAllocator(df, cloud, 0.7).setResilience(cfg.resilience);
      }));
    } else {
      thrown.push_back(preconditionMessage(
          [&] { (void)FaultPlan(kSeed, cfg.faults, cfg.elasticity); }));
    }
    for (const std::string& message : thrown) {
      EXPECT_NE(message.find(bad.message), std::string::npos) << message;
      EXPECT_NE(message.find("(1 error)"), std::string::npos) << message;
    }
  }
}

TEST(FaultPlan, DeathTimeMatchesGeneralizedInjector) {
  // FaultPlan absorbed the stand-alone crash injector; its lifetime draw
  // must stay that injector's exact formula, or every crash golden moves.
  const FaultPlan plan = allFamiliesPlan();
  for (std::uint32_t v = 0; v < 16; ++v) {
    const std::uint64_t h =
        splitmix64(kSeed ^ (0x51ed2701ull + v) * 0x2545f491ull);
    const double lifetime_s = -std::log(hashToUnitInterval(h)) *
                              allFamilies().vm_mtbf_hours * kSecondsPerHour;
    EXPECT_EQ(plan.deathTime(VmId(v), 50.0), 50.0 + lifetime_s);
  }
}

// The property the whole design hangs on: every answer is a pure function
// of (seed, entity, time) — the order and number of queries is irrelevant.
TEST(FaultPlan, StragglerAnswersAreQueryOrderIndependent) {
  const FaultPlan a = allFamiliesPlan();
  const FaultPlan b = allFamiliesPlan();

  std::vector<SimTime> times;
  for (int i = 0; i < 200; ++i) times.push_back(37.0 * i);

  // `a` is queried forward, `b` backward and twice over; answers and the
  // derived cpu factors must agree exactly.
  std::vector<bool> forward;
  forward.reserve(times.size());
  for (const SimTime t : times) {
    forward.push_back(a.isStraggling(VmId(3), 0.0, t));
  }
  for (auto it = times.rbegin(); it != times.rend(); ++it) {
    (void)b.isStraggling(VmId(3), 0.0, *it);  // warm-up pass, reversed
  }
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(b.isStraggling(VmId(3), 0.0, times[i]), forward[i]) << i;
    EXPECT_DOUBLE_EQ(b.cpuFactor(VmId(3), 0.0, times[i]),
                     forward[i] ? 0.3 : 1.0);
  }
}

TEST(FaultPlan, StragglerEpisodesAreRelativeToVmStart) {
  const FaultPlan plan = allFamiliesPlan();
  // A VM started at T sees the same episode timeline, shifted by T.
  for (int i = 0; i < 500; ++i) {
    const SimTime rel = 61.0 * i;
    EXPECT_EQ(plan.isStraggling(VmId(5), 0.0, rel),
              plan.isStraggling(VmId(5), 1234.0, 1234.0 + rel));
  }
}

TEST(FaultPlan, StragglerDutyCycleTracksMtbfAndDuration) {
  auto cfg = allFamilies();
  cfg.straggler_mtbf_hours = 0.5;    // 1800 s mean gap
  cfg.straggler_duration_s = 600.0;  // expected duty ~ 600/2400 = 0.25
  const FaultPlan plan(kSeed, cfg, delayed());
  int straggling = 0;
  int samples = 0;
  for (std::uint32_t v = 0; v < 64; ++v) {
    for (int i = 0; i < 200; ++i) {
      straggling += plan.isStraggling(VmId(v), 0.0, 60.0 * i) ? 1 : 0;
      ++samples;
    }
  }
  const double duty =
      static_cast<double>(straggling) / static_cast<double>(samples);
  EXPECT_NEAR(duty, 0.25, 0.05);
}

TEST(FaultPlan, PartitionsAreSymmetricAndIrreflexive) {
  const FaultPlan plan = allFamiliesPlan();
  for (int i = 0; i < 300; ++i) {
    const SimTime t = 97.0 * i;
    EXPECT_EQ(plan.linkPartitioned(VmId(1), VmId(7), t),
              plan.linkPartitioned(VmId(7), VmId(1), t));
    EXPECT_FALSE(plan.linkPartitioned(VmId(4), VmId(4), t));
  }
}

TEST(FaultPlan, PartitionsHitSomePairsWithinHorizon) {
  auto cfg = allFamilies();
  cfg.partition_mtbf_hours = 0.25;
  const FaultPlan plan(kSeed, cfg, delayed());
  int hits = 0;
  for (std::uint32_t a = 0; a < 6; ++a) {
    for (std::uint32_t b = a + 1; b < 6; ++b) {
      for (int i = 0; i < 240; ++i) {
        if (plan.linkPartitioned(VmId(a), VmId(b), 30.0 * i)) {
          ++hits;
          break;
        }
      }
    }
  }
  EXPECT_GT(hits, 0);
}

TEST(FaultPlan, AcquisitionRejectionRateMatchesProbability) {
  const FaultPlan plan = allFamiliesPlan();
  int rejected = 0;
  constexpr int kAttempts = 20000;
  for (std::uint64_t n = 0; n < kAttempts; ++n) {
    rejected += plan.acquisitionRejected(n) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(rejected) / kAttempts, 0.25, 0.02);
  // And the per-attempt verdict is stable on re-query.
  for (std::uint64_t n = 0; n < 100; ++n) {
    EXPECT_EQ(plan.acquisitionRejected(n), plan.acquisitionRejected(n));
  }
}

TEST(FaultPlan, ProvisioningDelayIsExponentialPerVm) {
  const FaultPlan plan = allFamiliesPlan();
  const ResourceClass one_core{"c1", 1, 1.0, 100.0, 0.0};
  RunningStats delays;
  for (std::uint32_t v = 0; v < 5000; ++v) {
    const SimTime d = plan.provisioningDelay(VmId(v), one_core);
    EXPECT_GE(d, 0.0);
    EXPECT_DOUBLE_EQ(d, plan.provisioningDelay(VmId(v), one_core));  // pure
    delays.add(d);
  }
  EXPECT_NEAR(delays.mean(), 120.0, 10.0);
  EXPECT_NEAR(delays.stddev(), 120.0, 15.0);
}

TEST(FaultPlan, DisabledFamiliesAreInert) {
  const FaultPlan plan(42, {}, {});  // everything off
  EXPECT_FALSE(plan.perturbsPerformance());
  EXPECT_FALSE(plan.perturbsAcquisition());
  EXPECT_DOUBLE_EQ(plan.cpuFactor(VmId(0), 0.0, 1e6), 1.0);
  EXPECT_FALSE(plan.linkPartitioned(VmId(0), VmId(1), 1e6));
  EXPECT_FALSE(plan.acquisitionRejected(0));
  const ResourceClass big{"c8", 8, 1.0, 100.0, 0.0};
  EXPECT_DOUBLE_EQ(plan.provisioningDelay(VmId(0), big), 0.0);
  EXPECT_FALSE(plan.perturbsSpot());
  EXPECT_EQ(plan.preemptionTime(VmId(0), 0.0),
            std::numeric_limits<SimTime>::infinity());
}

// -- spot-preemption family --

FaultPlan preemptionPlan(std::uint64_t seed = kSeed) {
  ElasticityConfig el;
  el.spot_discount = 0.7;  // reclamation needs a spot tier
  el.spot_preemption_mtbf_h = 2.0;
  el.spot_notice_s = 120.0;
  return FaultPlan(seed, {}, el);
}

TEST(FaultPlanPreemption, TimesArePureInSeedVmAndStart) {
  const FaultPlan a = preemptionPlan();
  const FaultPlan b = preemptionPlan();
  for (std::uint32_t v = 0; v < 64; ++v) {
    const SimTime t = a.preemptionTime(VmId(v), 100.0);
    EXPECT_GT(t, 100.0);
    EXPECT_DOUBLE_EQ(t, a.preemptionTime(VmId(v), 100.0));  // re-query
    EXPECT_DOUBLE_EQ(t, b.preemptionTime(VmId(v), 100.0));  // fresh plan
  }
  // A different seed reshuffles the schedule.
  const FaultPlan c = preemptionPlan(12);
  int moved = 0;
  for (std::uint32_t v = 0; v < 64; ++v) {
    moved += a.preemptionTime(VmId(v), 0.0) != c.preemptionTime(VmId(v), 0.0)
                 ? 1
                 : 0;
  }
  EXPECT_GT(moved, 32);
}

TEST(FaultPlanPreemption, TimesShiftWithVmStart) {
  const FaultPlan plan = preemptionPlan();
  for (std::uint32_t v = 0; v < 32; ++v) {
    EXPECT_DOUBLE_EQ(plan.preemptionTime(VmId(v), 500.0),
                     plan.preemptionTime(VmId(v), 0.0) + 500.0);
  }
}

TEST(FaultPlanPreemption, MeanLifetimeTracksMtbf) {
  const FaultPlan plan = preemptionPlan();
  RunningStats lifetimes;
  for (std::uint32_t v = 0; v < 5000; ++v) {
    lifetimes.add(plan.preemptionTime(VmId(v), 0.0));
  }
  EXPECT_NEAR(lifetimes.mean(), 2.0 * 3600.0, 0.05 * 2.0 * 3600.0);
}

TEST(FaultPlanPreemption, NoticeWindowIsTheConfiguredLeadTime) {
  EXPECT_DOUBLE_EQ(preemptionPlan().noticeWindow(), 120.0);
  EXPECT_TRUE(preemptionPlan().perturbsSpot());
}

TEST(FaultPlanPreemption, InjectOnlyReclaimsPreemptibleVms) {
  const FaultPlan plan = preemptionPlan();
  CloudProvider cloud(withSpotTier(awsCatalog2013(), 0.7));
  const VmId od = cloud.acquire(cloud.catalog().byName("m1.small"), 0.0);
  const VmId spot =
      cloud.acquire(cloud.catalog().byName("m1.small-spot"), 0.0);
  // Far past every finite preemption time.
  const auto events =
      plan.injectPreemptionsUpTo(cloud, 1000.0 * kSecondsPerHour);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].vm, spot);
  EXPECT_TRUE(cloud.instance(od).isActive());
  EXPECT_FALSE(cloud.instance(spot).isActive());
  EXPECT_EQ(cloud.instance(spot).terminationReason(),
            TerminationReason::Preempted);
  // Idempotent: the reclaimed VM left the active set.
  EXPECT_TRUE(
      plan.injectPreemptionsUpTo(cloud, 1000.0 * kSecondsPerHour).empty());
}

TEST(FaultPlanPreemption, InjectReportsBacklogLossAndFreesCores) {
  const FaultPlan plan = preemptionPlan();
  CloudProvider cloud(withSpotTier(awsCatalog2013(), 0.7));
  const VmId spot =
      cloud.acquire(cloud.catalog().byName("m1.large-spot"), 0.0);
  cloud.allocateCore(spot, PeId(2));
  cloud.allocateCore(spot, PeId(2));
  const auto events =
      plan.injectPreemptionsUpTo(cloud, 1000.0 * kSecondsPerHour);
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(events[0].losses.size(), 1u);
  EXPECT_EQ(events[0].losses[0].pe, PeId(2));
  // Both of the PE's cores sat on the reclaimed VM: all backlog is lost.
  EXPECT_DOUBLE_EQ(events[0].losses[0].fraction, 1.0);
}

TEST(FaultPlanPreemption, DisabledFamilyNeverFires) {
  const FaultPlan plan(kSeed, {}, {});
  CloudProvider cloud(withSpotTier(awsCatalog2013(), 0.7));
  (void)cloud.acquire(cloud.catalog().byName("m1.small-spot"), 0.0);
  EXPECT_TRUE(
      plan.injectPreemptionsUpTo(cloud, 1000.0 * kSecondsPerHour).empty());
}

TEST(FaultPlan, InjectUpToIsIdempotentAtTheSameTime) {
  const FaultPlan plan = allFamiliesPlan();
  CloudProvider cloud(awsCatalog2013());
  for (int i = 0; i < 8; ++i) {
    (void)cloud.acquire(ResourceClassId(0), 0.0);
  }
  const SimTime horizon = 50.0 * kSecondsPerHour;
  const auto first = plan.injectUpTo(cloud, horizon);
  EXPECT_FALSE(first.empty());  // at mtbf 4 h nearly every VM dies by 50 h
  // Crashed VMs left the active set: the same call reports nothing new.
  EXPECT_TRUE(plan.injectUpTo(cloud, horizon).empty());
}

// -- end-to-end determinism and recovery behaviour --

ExperimentConfig turbulentExperiment() {
  ExperimentConfig cfg;
  cfg.horizon_s = 2.0 * kSecondsPerHour;
  cfg.workload.mean_rate = 10.0;
  cfg.seed = 77;
  cfg.faults.vm_mtbf_hours = 3.0;
  cfg.faults.straggler_mtbf_hours = 1.0;
  cfg.faults.straggler_factor = 0.3;
  cfg.faults.straggler_duration_s = 600.0;
  cfg.faults.acquisition_failure_prob = 0.2;
  cfg.elasticity.provisioning_delay_s = 90.0;
  cfg.resilience.quarantine_threshold = 0.5;
  cfg.resilience.graceful_degradation = true;
  return cfg;
}

TEST(FaultPlanEndToEnd, SameSeedYieldsIdenticalResults) {
  const Dataflow df = makePaperDataflow();
  const auto cfg = turbulentExperiment();
  const auto r1 = SimulationEngine(df, cfg).run(parseScheduler("global"));
  const auto r2 = SimulationEngine(df, cfg).run(parseScheduler("global"));

  EXPECT_EQ(r1.vm_failures, r2.vm_failures);
  EXPECT_DOUBLE_EQ(r1.messages_lost, r2.messages_lost);
  EXPECT_DOUBLE_EQ(r1.total_cost, r2.total_cost);
  EXPECT_DOUBLE_EQ(r1.theta, r2.theta);
  EXPECT_EQ(r1.acquisition_rejections, r2.acquisition_rejections);
  EXPECT_EQ(r1.resilience.stragglers_quarantined,
            r2.resilience.stragglers_quarantined);
  EXPECT_EQ(r1.resilience.graceful_degradations,
            r2.resilience.graceful_degradations);
  ASSERT_EQ(r1.run.intervals().size(), r2.run.intervals().size());
  for (std::size_t i = 0; i < r1.run.intervals().size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.run.intervals()[i].omega,
                     r2.run.intervals()[i].omega)
        << "interval " << i;
    EXPECT_DOUBLE_EQ(r1.run.intervals()[i].cost_cumulative,
                     r2.run.intervals()[i].cost_cumulative)
        << "interval " << i;
  }
}

TEST(FaultPlanEndToEnd, DifferentSeedsYieldDifferentFaultTimelines) {
  const Dataflow df = makePaperDataflow();
  auto cfg = turbulentExperiment();
  const auto r1 = SimulationEngine(df, cfg).run(parseScheduler("global"));
  cfg.seed = 78;
  const auto r2 = SimulationEngine(df, cfg).run(parseScheduler("global"));
  bool differs = r1.vm_failures != r2.vm_failures ||
                 r1.acquisition_rejections != r2.acquisition_rejections ||
                 std::abs(r1.average_omega - r2.average_omega) > 1e-12;
  EXPECT_TRUE(differs);
}

TEST(FaultPlanEndToEnd, AdaptivePoliciesRecoverStaticsDoNot) {
  const Dataflow df = makePaperDataflow();
  auto cfg = turbulentExperiment();
  cfg.horizon_s = 4.0 * kSecondsPerHour;

  const auto global =
      SimulationEngine(df, cfg).run(parseScheduler("global"));
  const auto local =
      SimulationEngine(df, cfg).run(parseScheduler("local"));
  const auto fixed =
      SimulationEngine(df, cfg).run(parseScheduler("global-static"));

  // The adaptive policies keep answering faults: constraint violations
  // stay bounded episodes, and overall availability stays high.
  for (const auto* r : {&global, &local}) {
    EXPECT_GE(r->average_omega, 0.6) << r->scheduler_name;
    EXPECT_GE(r->recovery.availability, 0.5) << r->scheduler_name;
    EXPECT_EQ(r->recovery.unrecovered_episodes, 0) << r->scheduler_name;
  }
  // The static deployment cannot replace lost capacity: by the horizon it
  // sits in an open violation episode with far worse availability.
  EXPECT_GT(fixed.recovery.unrecovered_episodes, 0);
  EXPECT_LT(fixed.recovery.availability, global.recovery.availability);
  EXPECT_LT(fixed.run.intervals().back().omega,
            global.run.intervals().back().omega);
}

TEST(FaultPlanEndToEnd, CleanRunReportsFullAvailability) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg;
  cfg.horizon_s = 30.0 * kSecondsPerMinute;
  cfg.workload.mean_rate = 5.0;
  const auto r = SimulationEngine(df, cfg).run(parseScheduler("global"));
  EXPECT_EQ(r.recovery.violation_episodes, 0);
  EXPECT_DOUBLE_EQ(r.recovery.availability, 1.0);
  EXPECT_DOUBLE_EQ(r.recovery.mttr_s, 0.0);
  EXPECT_EQ(r.acquisition_rejections, 0);
  EXPECT_EQ(r.resilience.stragglers_quarantined, 0);
}

TEST(FaultPlanEndToEnd, FaultFamiliesRequireFluidBackend) {
  const Dataflow df = makePaperDataflow();
  auto cfg = turbulentExperiment();
  cfg.backend = SimBackend::Event;
  EXPECT_THROW(SimulationEngine(df, cfg), PreconditionError);
}

}  // namespace
}  // namespace dds

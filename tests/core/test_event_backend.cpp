// Engine runs through the discrete-event backend.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "dds/config/config_file.hpp"
#include "dds/core/engine.hpp"
#include "dds/dataflow/standard_graphs.hpp"

namespace dds {
namespace {

ExperimentConfig eventConfig() {
  ExperimentConfig cfg;
  cfg.horizon_s = 20.0 * kSecondsPerMinute;
  cfg.workload.mean_rate = 5.0;
  cfg.backend = SimBackend::Event;
  return cfg;
}

TEST(EventBackend, ToStringNames) {
  EXPECT_EQ(toString(SimBackend::Fluid), "fluid");
  EXPECT_EQ(toString(SimBackend::Event), "event");
}

TEST(EventBackend, FillsLatencyFields) {
  const Dataflow df = makePaperDataflow();
  const auto r =
      SimulationEngine(df, eventConfig()).run(parseScheduler("global"));
  EXPECT_GT(r.messages_delivered, 0u);
  EXPECT_GT(r.latency_mean_s, 0.0);
  EXPECT_GT(r.latency_p50_s, 0.0);
  EXPECT_GE(r.latency_p95_s, r.latency_p50_s);
  EXPECT_GE(r.latency_p95_s, r.latency_mean_s * 0.5);
  EXPECT_GE(r.latency_p99_s, r.latency_p95_s);
  EXPECT_EQ(r.run.intervals().size(), 20u);
}

TEST(EventBackend, FluidBackendLeavesLatencyZero) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg = eventConfig();
  cfg.backend = SimBackend::Fluid;
  const auto r =
      SimulationEngine(df, cfg).run(parseScheduler("global"));
  EXPECT_EQ(r.messages_delivered, 0u);
  EXPECT_DOUBLE_EQ(r.latency_mean_s, 0.0);
}

TEST(EventBackend, BackendsAgreeOnThroughputShape) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg = eventConfig();
  cfg.horizon_s = kSecondsPerHour;
  const auto event =
      SimulationEngine(df, cfg).run(parseScheduler("global"));
  cfg.backend = SimBackend::Fluid;
  const auto fluid =
      SimulationEngine(df, cfg).run(parseScheduler("global"));
  EXPECT_NEAR(event.average_omega, fluid.average_omega, 0.12);
  EXPECT_TRUE(event.constraint_met);
}

TEST(EventBackend, StaticPolicyRunsWithoutAdaptation) {
  const Dataflow df = makePaperDataflow();
  const auto r =
      SimulationEngine(df, eventConfig()).run(parseScheduler("global-static"));
  EXPECT_EQ(r.scheduler_name, "global-static");
  EXPECT_GT(r.messages_delivered, 0u);
}

TEST(EventBackend, RejectsFaultInjection) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg = eventConfig();
  cfg.faults.vm_mtbf_hours = 2.0;
  EXPECT_THROW(SimulationEngine(df, cfg), PreconditionError);
}

TEST(EventBackend, PowerSmoothingReachesTheScheduler) {
  // Smoothed probes are taken in the interval loop both backends share.
  // Trace replay does not depend on which monitoring queries ran, so the
  // smoothed power the scheduler plans against is the only difference
  // between these runs: alpha < 1 must change its decisions — the active
  // alternates (Gamma), cores and VMs of some interval. Smoothing changes
  // a plan only when a probe swing crosses a packing threshold, which
  // about 3 in 10 seeds' replay windows do here; seed 1 is one of them.
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg = eventConfig();
  cfg.horizon_s = 30.0 * kSecondsPerMinute;
  cfg.workload.infra_variability = true;
  cfg.workload.mean_rate = 10.0;
  cfg.seed = 1;
  const auto decisions = [&](double alpha) {
    cfg.power_smoothing_alpha = alpha;
    const auto r = SimulationEngine(df, cfg).run(parseScheduler("global"));
    std::vector<std::tuple<double, int, int>> out;
    for (const auto& m : r.run.intervals()) {
      out.emplace_back(m.gamma, m.allocated_cores, m.active_vms);
    }
    return out;
  };
  EXPECT_EQ(decisions(1.0), decisions(1.0));
  EXPECT_NE(decisions(1.0), decisions(0.3));
}

TEST(EventBackend, ConfigFileSelectsBackend) {
  const auto ex = experimentFromConfig(
      KeyValueConfig::parse("backend = event\nworkload.mean_rate = 4\n"));
  EXPECT_EQ(ex.config.backend, SimBackend::Event);
  EXPECT_THROW((void)experimentFromConfig(
                   KeyValueConfig::parse("backend = quantum\n")),
               PreconditionError);
}

}  // namespace
}  // namespace dds

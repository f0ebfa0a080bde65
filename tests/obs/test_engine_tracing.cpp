// Engine-level observability: determinism of streamed traces, timeline
// analysis of real runs, and the metrics snapshot in ExperimentResult.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "dds/core/engine.hpp"
#include "dds/dataflow/standard_graphs.hpp"
#include "dds/obs/jsonl_sink.hpp"
#include "dds/obs/timeline.hpp"
#include "dds/obs/trace_reader.hpp"

namespace dds {
namespace {

ExperimentConfig shortConfig() {
  ExperimentConfig cfg;
  cfg.horizon_s = 0.5 * kSecondsPerHour;
  cfg.workload.mean_rate = 10.0;
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.workload.infra_variability = true;
  cfg.seed = 77;
  return cfg;
}

std::string runTraced(const ExperimentConfig& cfg, const SchedulerSpec& kind) {
  const Dataflow df = makePaperDataflow();
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  (void)SimulationEngine(df, cfg).run(kind, &sink);
  return out.str();
}

TEST(EngineTracing, SameSeedAndConfigYieldByteIdenticalTraces) {
  const std::string a = runTraced(shortConfig(), parseScheduler("global"));
  const std::string b = runTraced(shortConfig(), parseScheduler("global"));
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(EngineTracing, DifferentSeedsDiverge) {
  ExperimentConfig other = shortConfig();
  other.seed = 78;
  EXPECT_NE(runTraced(shortConfig(), parseScheduler("global")),
            runTraced(other, parseScheduler("global")));
}

TEST(EngineTracing, TraceStartsWithHeaderAndAnalyzes) {
  const ExperimentConfig cfg = shortConfig();
  std::istringstream in(runTraced(cfg, parseScheduler("global")));
  const auto events = obs::readTraceJsonl(in);
  ASSERT_FALSE(events.empty());
  ASSERT_TRUE(std::holds_alternative<obs::RunHeaderEvent>(events.front()));
  const auto& header = std::get<obs::RunHeaderEvent>(events.front());
  EXPECT_EQ(header.scheduler, "global");
  EXPECT_EQ(header.seed, cfg.seed);
  EXPECT_EQ(header.backend, "fluid");

  const obs::TraceAnalysis a = obs::analyzeTrace(events);
  ASSERT_TRUE(a.has_header);
  // One timeline row per adaptation interval of the half-hour horizon.
  EXPECT_EQ(a.rows.size(),
            static_cast<std::size_t>(cfg.horizon_s / cfg.interval_s));
  EXPECT_GT(a.average_omega, 0.0);
  EXPECT_GT(a.final_cost, 0.0);

  // The analysis must agree with the engine's own result.
  const Dataflow df = makePaperDataflow();
  const ExperimentResult r =
      SimulationEngine(df, cfg).run(parseScheduler("global"));
  EXPECT_NEAR(a.average_omega, r.average_omega, 1e-12);
  EXPECT_NEAR(a.average_gamma, r.average_gamma, 1e-12);
  EXPECT_NEAR(a.final_cost, r.total_cost, 1e-12);
  EXPECT_NEAR(a.theta, r.theta, 1e-12);
  EXPECT_EQ(a.peak_vms, static_cast<double>(r.peak_vms));
  EXPECT_EQ(a.peak_cores, static_cast<double>(r.peak_cores));
}

TEST(EngineTracing, UntracedRunMatchesTracedRunResults) {
  const Dataflow df = makePaperDataflow();
  const SimulationEngine engine(df, shortConfig());
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  const ExperimentResult traced =
      engine.run(parseScheduler("global"), &sink);
  const ExperimentResult untraced = engine.run(parseScheduler("global"));
  // Tracing must observe the run, never steer it.
  EXPECT_EQ(traced.average_omega, untraced.average_omega);
  EXPECT_EQ(traced.average_gamma, untraced.average_gamma);
  EXPECT_EQ(traced.total_cost, untraced.total_cost);
  EXPECT_EQ(traced.theta, untraced.theta);
  EXPECT_EQ(traced.peak_vms, untraced.peak_vms);
}

TEST(EngineTracing, ResultCarriesMetricsSnapshot) {
  const Dataflow df = makePaperDataflow();
  const ExperimentResult r =
      SimulationEngine(df, shortConfig()).run(parseScheduler("global"));
  ASSERT_FALSE(r.metrics.empty());
  const auto find = [&](const std::string& name) {
    const auto it =
        std::find_if(r.metrics.begin(), r.metrics.end(),
                     [&](const obs::MetricSample& m) {
                       return m.name == name;
                     });
    EXPECT_NE(it, r.metrics.end()) << name;
    return it;
  };
  const auto omega = find("interval.omega");
  EXPECT_EQ(omega->kind, obs::MetricSample::Kind::Histogram);
  EXPECT_EQ(omega->count, r.run.intervals().size());
  EXPECT_NEAR(omega->mean, r.average_omega, 1e-12);
  EXPECT_EQ(find("run.intervals")->value,
            static_cast<double>(r.run.intervals().size()));
  EXPECT_NEAR(find("cloud.total_cost")->value, r.total_cost, 1e-12);
  EXPECT_TRUE(std::is_sorted(
      r.metrics.begin(), r.metrics.end(),
      [](const obs::MetricSample& a, const obs::MetricSample& b) {
        return a.name < b.name;
      }));
}

TEST(EngineTracing, EventBackendTracesAndAnalyzes) {
  ExperimentConfig cfg = shortConfig();
  cfg.backend = SimBackend::Event;
  cfg.workload.infra_variability = false;
  std::istringstream in(runTraced(cfg, parseScheduler("global")));
  const auto events = obs::readTraceJsonl(in);
  const obs::TraceAnalysis a = obs::analyzeTrace(events);
  ASSERT_TRUE(a.has_header);
  EXPECT_EQ(a.header.backend, "event");
  EXPECT_EQ(a.rows.size(),
            static_cast<std::size_t>(cfg.horizon_s / cfg.interval_s));
}

}  // namespace
}  // namespace dds

// End-to-end predictive scheduling: the forecast-off bit-identity gate
// (golden fixture + live byte compare against a pre-forecast-shaped
// run), forecast-on seed determinism on both backends, the predictive
// schedulers' effect under provisioning delays, and the forecast
// observability surface.
#include <gtest/gtest.h>

#include <sstream>

#include "dds/core/engine.hpp"
#include "dds/dataflow/standard_graphs.hpp"
#include "dds/obs/jsonl_sink.hpp"
#include "dds/obs/timeline.hpp"
#include "dds/obs/trace_reader.hpp"
#include "dds/oracle/invariants.hpp"
#include "dds/oracle/run_reference.hpp"
#include "golden.hpp"

namespace dds {
namespace {

/// The forecast smoke scenario: a wave the seasonal model can learn,
/// with real provisioning delays so pre-acquisition has a lag to beat.
ExperimentConfig predictiveConfig() {
  ExperimentConfig cfg;
  cfg.horizon_s = 1.0 * kSecondsPerHour;
  cfg.workload.mean_rate = 10.0;
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.seed = 2013;
  cfg.elasticity.provisioning_delay_s = 120.0;
  cfg.elasticity.provisioning_delay_per_core_s = 15.0;
  cfg.forecast.model = ForecastModel::HoltWinters;
  cfg.forecast.horizon_intervals = 5;
  cfg.forecast.hw_season_intervals = 30;  // the wave period, in intervals
  return cfg;
}

/// The JSONL trace of one paper-graph run, on the product's simulators
/// or (`reference`) through oracle::runReference.
std::string traceOf(const ExperimentConfig& cfg, const SchedulerSpec& kind,
                    bool reference = false) {
  const Dataflow df = makePaperDataflow();
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  const SimulationEngine engine(df, cfg);
  if (reference) {
    oracle::expectIntervalInvariants(oracle::runReference(engine, kind, &sink),
                                     cfg.backend);
  } else {
    (void)engine.run(kind, &sink);
  }
  return out.str();
}

double violationSeconds(const ExperimentResult& r, double target,
                        double interval_s) {
  double out = 0.0;
  for (const auto& m : r.run.intervals()) {
    if (m.omega < target) out += interval_s;
  }
  return out;
}

TEST(ForecastOff, TraceBytesUnchangedByTheSubsystem) {
  // The bit-identity gate, live: a run with forecast.model = off must
  // produce byte-identical traces whether or not the rest of the
  // forecast block is populated — the subsystem is inert when off.
  ExperimentConfig base = predictiveConfig();
  base.forecast = ForecastConfig{};
  ASSERT_FALSE(base.forecast.enabled());
  ExperimentConfig decorated = base;
  decorated.forecast.horizon_intervals = 12;
  decorated.forecast.hw_alpha = 0.9;
  decorated.heuristic.preacquire_margin = 0.5;
  EXPECT_EQ(traceOf(base, parseScheduler("global")),
            traceOf(decorated, parseScheduler("global")));
}

TEST(ForecastGolden, ForecastOffTraceByteIdentical) {
  // Golden forecast-off fixture: the same elasticity-heavy scenario with
  // the forecast block defaulted must keep producing exactly the bytes
  // the pre-forecast engine produced (the fixture was generated against
  // it). Any drift here means the subsystem is not inert when off.
  ExperimentConfig cfg = predictiveConfig();
  cfg.forecast = ForecastConfig{};
  cfg.horizon_s = 20.0 * kSecondsPerMinute;
  const char* fixture = "forecast/testdata/golden_forecast_off_trace.jsonl";
  expectMatchesGolden(traceOf(cfg, parseScheduler("global")), fixture);
  EXPECT_EQ(traceOf(cfg, parseScheduler("global"), true),
            readGolden(fixture));
}

TEST(ForecastGolden, PredictiveTraceByteIdentical) {
  // Forecast-on golden: pins the predictive scheduler's full event
  // stream (forecast + preacquire records included) for one seed.
  ExperimentConfig cfg = predictiveConfig();
  cfg.horizon_s = 20.0 * kSecondsPerMinute;
  const char* fixture = "forecast/testdata/golden_predictive_trace.jsonl";
  expectMatchesGolden(traceOf(cfg, parseScheduler("global-predictive")),
                      fixture);
  EXPECT_EQ(traceOf(cfg, parseScheduler("global-predictive"), true),
            readGolden(fixture));
}

TEST(ForecastOn, SeedDeterministic) {
  const ExperimentConfig cfg = predictiveConfig();
  const std::string a = traceOf(cfg, parseScheduler("global-predictive"));
  const std::string b = traceOf(cfg, parseScheduler("global-predictive"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"ev\":\"forecast\""), std::string::npos);
  EXPECT_NE(a.find("\"ev\":\"preacquire\""), std::string::npos);
}

TEST(ForecastOn, EventBackendSeedDeterministic) {
  // One interval loop drives both backends, so forecasting works on the
  // event backend too (without provisioning delays, which stay
  // fluid-only). Two runs write the same bytes, and every line survives
  // the parse + re-serialize round trip `ddtrace --check` performs.
  ExperimentConfig cfg = predictiveConfig();
  cfg.backend = SimBackend::Event;
  cfg.elasticity = ElasticityConfig{};
  cfg.horizon_s = 30.0 * kSecondsPerMinute;
  const std::string a = traceOf(cfg, parseScheduler("global-predictive"));
  EXPECT_EQ(a, traceOf(cfg, parseScheduler("global-predictive")));
  EXPECT_NE(a.find("\"backend\":\"event\""), std::string::npos);
  EXPECT_NE(a.find("\"ev\":\"forecast\""), std::string::npos);
  std::istringstream in(a);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line); ++lines) {
    EXPECT_EQ(obs::traceEventJson(obs::parseTraceEventJson(line)), line);
  }
  EXPECT_GT(lines, 0u);
}

TEST(ForecastOn, PredictiveReducesSloViolationUnderDelay) {
  // The subsystem's reason to exist: with provisioning delays charging
  // real boot lag, pre-acquiring ahead of the forecast wave peak must
  // cut the seconds spent below the Omega target vs reactive.
  const Dataflow df = makePaperDataflow();
  const ExperimentConfig cfg = predictiveConfig();
  const SimulationEngine engine(df, cfg);
  const ExperimentResult reactive =
      engine.run(parseScheduler("global"));
  const ExperimentResult predictive =
      engine.run(parseScheduler("global-predictive"));
  EXPECT_LT(
      violationSeconds(predictive, cfg.omega_target, cfg.interval_s),
      violationSeconds(reactive, cfg.omega_target, cfg.interval_s));
  EXPECT_GT(predictive.average_omega, reactive.average_omega);
}

TEST(ForecastOn, MetricsAndTimelineSurfaceTheRun) {
  const Dataflow df = makePaperDataflow();
  const ExperimentConfig cfg = predictiveConfig();
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  const ExperimentResult result =
      SimulationEngine(df, cfg).run(parseScheduler("global-predictive"), &sink);

  bool saw_predictions = false;
  bool saw_mape = false;
  bool saw_preacquired = false;
  for (const auto& m : result.metrics) {
    if (m.name == "forecast.predictions" && m.value > 0) {
      saw_predictions = true;
    }
    if (m.name == "sched.preacquired_vms" && m.value > 0) {
      saw_preacquired = true;
    }
    if (m.name == "forecast.mape") saw_mape = true;
  }
  EXPECT_TRUE(saw_predictions);
  EXPECT_TRUE(saw_mape);
  EXPECT_TRUE(saw_preacquired);

  std::istringstream in(out.str());
  const obs::TraceAnalysis a =
      obs::analyzeTrace(obs::readTraceJsonl(in));
  EXPECT_EQ(a.forecast_model, "holt-winters");
  EXPECT_GT(a.forecast_samples, 0);
  // The wave is exactly periodic: after warm-up the seasonal model is
  // near-exact, so the whole-run MAPE stays modest even with the
  // warm-up season included.
  EXPECT_LT(a.forecast_mape, 0.25);
  EXPECT_EQ(a.preacquires_beat + a.preacquires_missed,
            static_cast<std::int64_t>(a.preacquires.size()));
  EXPECT_GT(a.preacquires_beat, 0);
}

TEST(ForecastOn, SchedulerNamesCarryThePredictiveSuffix) {
  const Dataflow df = makePaperDataflow();
  const ExperimentConfig cfg = predictiveConfig();
  const ExperimentResult r =
      SimulationEngine(df, cfg).run(parseScheduler("local-predictive"));
  EXPECT_NE(r.scheduler_name.find("-predictive"), std::string::npos);
}

TEST(ForecastConfigValidation, RejectsBadKnobsAndEventBackend) {
  ExperimentConfig cfg = predictiveConfig();
  cfg.forecast.horizon_intervals = 0;
  cfg.forecast.ewma_alpha = 2.0;
  cfg.forecast.hw_season_intervals = 1;
  const auto errors = cfg.validationErrors();
  EXPECT_GE(errors.size(), 3u);

  // On the event backend only the provisioning delays are rejected (they
  // stay fluid-only); forecasting itself is accepted.
  ExperimentConfig ev = predictiveConfig();
  ev.backend = SimBackend::Event;
  const auto ev_errors = ev.validationErrors();
  ASSERT_EQ(ev_errors.size(), 1u);
  EXPECT_NE(ev_errors.front().find("delays"), std::string::npos)
      << ev_errors.front();
  ev.elasticity = ElasticityConfig{};
  EXPECT_TRUE(ev.validationErrors().empty());
}

}  // namespace
}  // namespace dds

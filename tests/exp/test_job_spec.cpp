#include "dds/exp/job_spec.hpp"

#include <gtest/gtest.h>

#include <string>

#include "dds/common/time.hpp"

namespace dds {
namespace {

TEST(JobSpec, ParsesFullSpec) {
  const JobSpec spec = parseJobSpec(
      R"({"v": 1, "tenant": "team-a", "label": "baseline",)"
      R"( "graph": "chain", "chain_length": 6, "scheduler": "local",)"
      R"( "config": {"seed": 7, "workload.mean_rate": 12.5,)"
      R"( "workload.infra_variability": true, "catalog": "mixed"}})");
  EXPECT_EQ(spec.tenant, "team-a");
  EXPECT_EQ(spec.label, "baseline");
  EXPECT_EQ(spec.graph, "chain");
  EXPECT_EQ(spec.chain_length, 6u);
  EXPECT_EQ(spec.scheduler, "local");
  ASSERT_EQ(spec.config.size(), 4u);
  EXPECT_EQ(spec.config[0].first, "seed");
  EXPECT_EQ(spec.config[1].second.number, 12.5);
  EXPECT_TRUE(spec.config[2].second.boolean);
  EXPECT_EQ(spec.config[3].second.text, "mixed");
}

TEST(JobSpec, DefaultsApplyWhenFieldsAbsent) {
  const JobSpec spec = parseJobSpec(R"({"v": 1})");
  EXPECT_EQ(spec.graph, "paper");
  EXPECT_EQ(spec.scheduler, "global");
  EXPECT_TRUE(spec.tenant.empty());
  EXPECT_TRUE(spec.config.empty());
}

TEST(JobSpec, SerializationRoundTrips) {
  const std::string line =
      R"({"v": 1, "tenant": "t", "graph": "chain", "chain_length": 3,)"
      R"( "scheduler": "global",)"
      R"( "config": {"workload.mean_rate": 0.1, "seed": 5,)"
      R"( "workload.infra_variability": true, "catalog": "m3"}})";
  const JobSpec spec = parseJobSpec(line);
  const std::string json = spec.toJson();
  const JobSpec again = parseJobSpec(json);
  // Round trip is the identity: same serialized form, same fields.
  EXPECT_EQ(again.toJson(), json);
  EXPECT_EQ(again.tenant, spec.tenant);
  EXPECT_EQ(again.graph, spec.graph);
  EXPECT_EQ(again.chain_length, spec.chain_length);
  EXPECT_EQ(again.scheduler, spec.scheduler);
  ASSERT_EQ(again.config.size(), spec.config.size());
  for (std::size_t i = 0; i < spec.config.size(); ++i) {
    EXPECT_EQ(again.config[i].first, spec.config[i].first);
    EXPECT_EQ(static_cast<int>(again.config[i].second.kind),
              static_cast<int>(spec.config[i].second.kind));
  }
}

TEST(JobSpec, RejectsUnknownTopLevelField) {
  EXPECT_THROW(parseJobSpec(R"({"v": 1, "grahp": "paper"})"), ConfigError);
  EXPECT_THROW(parseJobSpec(R"({"v": 1, "priority": 3})"), ConfigError);
  try {
    (void)parseJobSpec(R"({"v": 1, "grahp": "paper"})");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("grahp"), std::string::npos);
  }
}

TEST(JobSpec, RejectsVersionMismatch) {
  EXPECT_THROW(parseJobSpec(R"({"v": 2})"), ConfigError);
  EXPECT_THROW(parseJobSpec(R"({"v": 0})"), ConfigError);
  EXPECT_THROW(parseJobSpec(R"({"graph": "paper"})"), ConfigError);  // no v
  EXPECT_THROW(parseJobSpec(R"({"v": "1"})"), ConfigError);  // wrong type
  EXPECT_THROW(parseJobSpec(R"({"v": 1.5})"), ConfigError);  // not integral
}

TEST(JobSpec, RejectsMalformedJsonAndWrongShapes) {
  EXPECT_THROW(parseJobSpec("not json"), ConfigError);
  EXPECT_THROW(parseJobSpec(R"([1, 2])"), ConfigError);  // not an object
  EXPECT_THROW(parseJobSpec(R"({"v": 1, "graph": 7})"), ConfigError);
  EXPECT_THROW(parseJobSpec(R"({"v": 1, "config": []})"), ConfigError);
  EXPECT_THROW(parseJobSpec(R"({"v": 1, "chain_length": 0})"), ConfigError);
  EXPECT_THROW(parseJobSpec(R"({"v": 1, "config": {"seed": null}})"),
               ConfigError);
}

TEST(JobSpec, RejectsReservedConfigKeys) {
  for (const std::string key :
       {"graph", "chain_length", "scheduler", "output_csv"}) {
    const std::string line =
        R"({"v": 1, "config": {")" + key + R"(": "x"}})";
    EXPECT_THROW(parseJobSpec(line), ConfigError) << key;
  }
}

TEST(JobSpec, ExperimentResolutionIsStrict) {
  // Unknown config keys are rejected...
  JobSpec unknown = parseJobSpec(
      R"({"v": 1, "config": {"workload.maen_rate": 5}})");
  EXPECT_THROW(experimentFromSpec(unknown), ConfigError);
  // ...and so are the retired flat spellings of nested keys.
  JobSpec flat = parseJobSpec(R"({"v": 1, "config": {"mean_rate": 5}})");
  try {
    (void)experimentFromSpec(flat);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "unknown config key: 'mean_rate'");
  }
}

TEST(JobSpec, ConfigValuesSurviveResolutionExactly) {
  // Doubles pass through jsonNumber -> from_chars without rounding.
  const double rate = 0.1 + 0.2;  // 0.30000000000000004
  const JobSpec spec = parseJobSpec(
      R"({"v": 1, "scheduler": "local", "config":)"
      R"( {"workload.mean_rate": 0.30000000000000004, "seed": 12345,)"
      R"( "horizon_h": 0.25, "workload.infra_variability": true}})");
  const CliExperiment ex = experimentFromSpec(spec);
  EXPECT_EQ(ex.config.workload.mean_rate, rate);
  EXPECT_EQ(ex.config.seed, 12345u);
  EXPECT_EQ(ex.config.horizon_s, 0.25 * kSecondsPerHour);
  EXPECT_TRUE(ex.config.workload.infra_variability);
  ASSERT_EQ(ex.schedulers.size(), 1u);
  EXPECT_EQ(ex.schedulers[0], parseScheduler("local"));
}

TEST(JobSpec, BadSchedulerOrGraphFailResolution) {
  EXPECT_THROW(
      experimentFromSpec(parseJobSpec(R"({"v": 1, "scheduler": "bogus"})")),
      ConfigError);
  EXPECT_THROW(
      experimentFromSpec(parseJobSpec(R"({"v": 1, "graph": "torus"})")),
      ConfigError);
}

}  // namespace
}  // namespace dds

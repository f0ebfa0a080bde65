#include "dds/exp/job_spec.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

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

/// The ConfigError message resolving `line` fails with ("" when it
/// resolves).
std::string resolutionError(const std::string& line) {
  try {
    (void)experimentFromSpec(parseJobSpec(line));
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(JobSpec, CoercesValuesLikeAConfigFile) {
  // Bools take JSON bools, synonym strings and 1/0; numbers take numeric
  // strings; a repeated key takes its last value.
  const CliExperiment ex = experimentFromSpec(parseJobSpec(
      R"({"v": 1, "config": {"workload.infra_variability": 1,)"
      R"( "resilience.graceful_degradation": "yes",)"
      R"( "forecast.lookahead_alternates": 0, "workload.mean_rate": "12.5",)"
      R"( "seed": 1, "seed": "2", "resilience.quarantine_probes": "5"}})"));
  EXPECT_TRUE(ex.config.workload.infra_variability);
  EXPECT_TRUE(ex.config.resilience.graceful_degradation);
  EXPECT_FALSE(ex.config.heuristic.lookahead_alternates);
  EXPECT_EQ(ex.config.workload.mean_rate, 12.5);
  EXPECT_EQ(ex.config.seed, 2u);
  EXPECT_EQ(ex.config.resilience.quarantine_probes, 5);
  // Integers reject fractions, given as numbers or as strings.
  EXPECT_EQ(resolutionError(R"({"v": 1, "config": {"seed": 7.5}})"),
            "config key 'seed' is not an integer: '7.5'");
  EXPECT_EQ(resolutionError(
                R"({"v": 1, "config": {"forecast.horizon_intervals": "7.5"}})"),
            "config key 'forecast.horizon_intervals' is not an integer: "
            "'7.5'");
  EXPECT_EQ(resolutionError(
                R"({"v": 1, "config": {"workload.infra_variability": 2}})"),
            "config key 'workload.infra_variability' is not a boolean: '2'");
  EXPECT_EQ(resolutionError(R"({"v": 1, "config": {"epsilon": true}})"),
            "config key 'epsilon' is not a number: 'true'");
}

TEST(JobSpec, RejectsNonFiniteNumbersAndNegativeSeeds) {
  EXPECT_EQ(resolutionError(R"({"v": 1, "config": {"sigma": "inf"}})"),
            "config key 'sigma' is not a finite number: 'inf'");
  EXPECT_EQ(resolutionError(R"({"v": 1, "config": {"sigma": "nan"}})"),
            "config key 'sigma' is not a finite number: 'nan'");
  // A literal past double's range parses as infinity.
  EXPECT_EQ(
      resolutionError(R"({"v": 1, "config": {"workload.mean_rate": 1e999}})"),
      "config key 'workload.mean_rate' is not a finite number: 'inf'");
  EXPECT_EQ(resolutionError(
                R"({"v": 1, "config": {"workload.msg_size_kb": -1e999}})"),
            "config key 'workload.msg_size_kb' is not a finite number: "
            "'-inf'");
  EXPECT_EQ(resolutionError(R"({"v": 1, "config": {"seed": -1}})"),
            "config key 'seed' is out of range [0, 9223372036854775807]: "
            "'-1'");
}

TEST(JobSpec, IntegerLiteralsStayExactPast2To53) {
  // 2^53 + 1 has no double; it used to run as seed 2^53.
  const JobSpec spec =
      parseJobSpec(R"({"v": 1, "config": {"seed": 9007199254740993}})");
  EXPECT_EQ(experimentFromSpec(spec).config.seed, 9007199254740993u);
  // The literal survives serialization, so the round trip stays exact.
  EXPECT_NE(spec.toJson().find(R"("seed":9007199254740993)"),
            std::string::npos)
      << spec.toJson();
  EXPECT_EQ(experimentFromSpec(parseJobSpec(spec.toJson())).config.seed,
            9007199254740993u);
  // Past the seed's range a spec fails exactly as a file does.
  std::string file_error;
  try {
    (void)experimentFromConfig(
        KeyValueConfig::parse("seed = 9223372036854775808\n"));
  } catch (const ConfigError& e) {
    file_error = e.what();
  }
  EXPECT_EQ(file_error, "config key 'seed' is not an integer: "
                        "'9223372036854775808'");
  EXPECT_EQ(resolutionError(
                R"({"v": 1, "config": {"seed": 9223372036854775808}})"),
            file_error);
}

TEST(JobSpec, ChainLengthIsReadExactlyAndRangeChecked) {
  // 1e300 used to go through an out-of-range cast to an integer.
  for (const std::string bad : {"1e300", "2.5", "0", "1025", "-1"}) {
    try {
      (void)parseJobSpec(R"({"v": 1, "graph": "chain", "chain_length": )" +
                         bad + "}");
      ADD_FAILURE() << "expected ConfigError for chain_length " << bad;
    } catch (const ConfigError& e) {
      EXPECT_STREQ(e.what(),
                   "job-spec field 'chain_length' must be an integer in "
                   "[1, 1024]");
    }
  }
  EXPECT_EQ(parseJobSpec(R"({"v": 1, "chain_length": 1024})").chain_length,
            1024u);
}

/// One key's value, spelled once for a config file and once as JSON.
struct Setting {
  const char* key;
  const char* conf;
  const char* json;
};

/// The spec and the file a settings list describes.
std::pair<std::string, std::string> specAndFile(
    const std::vector<Setting>& settings, const std::string& top_level) {
  std::string spec = R"({"v": 1, )" + top_level + R"(, "config": {)";
  std::string file;
  for (std::size_t i = 0; i < settings.size(); ++i) {
    spec += std::string(i ? ", " : "") + "\"" + settings[i].key +
            "\": " + settings[i].json;
    file += std::string(settings[i].key) + " = " + settings[i].conf + "\n";
  }
  return {spec + "}}", file};
}

TEST(JobSpec, FileAndSpecGiveEqualExperimentsForEveryKey) {
  // Every key set to a non-default value, once as config-file text and
  // once as v1 JSON. Fault, delay and spot knobs are fluid-only, so the
  // event backend gets a second, smaller set.
  const std::vector<Setting> fluid = {
      {"horizon_h", "0.5", "0.5"},
      {"interval_s", "30", R"("30")"},
      {"seed", "7", "7"},
      {"omega_target", "0.8", R"("0.8")"},
      {"epsilon", "0.04", "0.04"},
      {"alternate_period", "3", "3"},
      {"resource_period", "2", R"("2")"},
      {"sigma", "0.5", "0.5"},
      {"catalog", "mixed", R"("mixed")"},
      {"placement_racks", "2", "2"},
      {"power_smoothing_alpha", "0.5", R"("0.5")"},
      {"max_queue_delay_s", "20", "20"},
      {"workload.mean_rate", "12.5", "12.5"},
      {"workload.profile", "wave", R"("wave")"},
      {"workload.msg_size_kb", "50", R"("50")"},
      {"workload.infra_variability", "true", R"("yes")"},
      {"fault.vm_mtbf_h", "4", "4"},
      {"fault.straggler_mtbf_h", "2", R"("2")"},
      {"fault.straggler_factor", "0.4", "0.4"},
      {"fault.straggler_duration_s", "300", "300"},
      {"fault.acq_failure_prob", "0.1", R"("0.1")"},
      {"fault.partition_mtbf_h", "3", "3"},
      {"fault.partition_duration_s", "90", "90"},
      {"elasticity.provisioning_delay_s", "60", "60"},
      {"elasticity.provisioning_delay_per_core_s", "10", R"("10")"},
      {"elasticity.spot_discount", "0.6", "0.6"},
      {"elasticity.spot_fraction", "0.5", "0.5"},
      {"elasticity.spot_preemption_mtbf_h", "2", "2"},
      {"elasticity.spot_notice_s", "90", R"("90")"},
      {"elasticity.pe_state_mb", "40", "40"},
      {"elasticity.migration_bandwidth_mbps", "200", "200"},
      {"resilience.quarantine_threshold", "0.5", "0.5"},
      {"resilience.quarantine_probes", "2", "2"},
      {"resilience.acq_max_retries", "4", R"("4")"},
      {"resilience.acq_backoff_s", "30", "30"},
      {"resilience.graceful_degradation", "on", "true"},
      {"forecast.model", "holt-winters", R"("holt-winters")"},
      {"forecast.horizon_intervals", "4", "4"},
      {"forecast.ewma_alpha", "0.4", R"("0.4")"},
      {"forecast.hw_alpha", "0.35", "0.35"},
      {"forecast.hw_beta", "0.1", "0.1"},
      {"forecast.hw_gamma", "0.25", "0.25"},
      {"forecast.hw_season_intervals", "10", R"("10")"},
      {"forecast.preacquire_margin", "0.2", "0.2"},
      {"forecast.lookahead_alternates", "no", "0"},
  };
  const std::vector<Setting> event = {
      {"backend", "event", R"("event")"},
      {"seed", "9223372036854775807", "9223372036854775807"},
      {"workload.mean_rate", "6", R"("6")"},
      {"workload.infra_variability", "yes", "1"},
      {"forecast.model", "ewma", R"("ewma")"},
  };
  const std::string top_level =
      R"("graph": "chain", "chain_length": 6, "scheduler": "global-predictive")";
  const std::string top_level_file =
      "graph = chain\nchain_length = 6\nscheduler = global-predictive\n";

  std::set<std::string> covered = {"graph", "chain_length", "scheduler"};
  for (const auto* settings : {&fluid, &event}) {
    const auto [spec, file] = specAndFile(*settings, top_level);
    const CliExperiment from_spec = experimentFromSpec(parseJobSpec(spec));
    const CliExperiment from_file =
        experimentFromConfig(KeyValueConfig::parse(top_level_file + file));
    EXPECT_EQ(from_spec.config, from_file.config) << spec;
    EXPECT_NE(from_spec.config, ExperimentConfig{}) << spec;
    EXPECT_EQ(from_spec.graph, from_file.graph);
    EXPECT_EQ(from_spec.chain_length, from_file.chain_length);
    EXPECT_EQ(from_spec.schedulers, from_file.schedulers);
    for (const Setting& setting : *settings) covered.insert(setting.key);
  }
  // Every key a spec can set is covered (output_csv is file-only).
  std::set<std::string> spec_keys;
  for (const std::string_view key : configKeyNames()) {
    if (configKeyScope(key) != ConfigScope::FileOnly) spec_keys.emplace(key);
  }
  EXPECT_EQ(covered, spec_keys);
}

}  // namespace
}  // namespace dds

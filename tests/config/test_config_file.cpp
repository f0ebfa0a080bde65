#include "dds/config/config_file.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace dds {
namespace {

TEST(KeyValueConfig, ParsesPairsCommentsAndBlanks) {
  const auto kv = KeyValueConfig::parse(
      "# header comment\n"
      "mean_rate = 12.5\n"
      "\n"
      "graph= paper   # trailing comment\n"
      "infra_variability =true\n");
  const std::vector<ConfigEntry> expected = {
      {"mean_rate", "12.5"}, {"graph", "paper"}, {"infra_variability", "true"}};
  EXPECT_EQ(kv.entries(), expected);
}

TEST(KeyValueConfig, RejectsMalformedLines) {
  EXPECT_THROW((void)KeyValueConfig::parse("no equals sign\n"), IoError);
  EXPECT_THROW((void)KeyValueConfig::parse("= value\n"), IoError);
}

TEST(KeyValueConfig, LoadMissingFileThrows) {
  EXPECT_THROW((void)KeyValueConfig::load("/no/such/file.conf"), IoError);
}

CliExperiment fromText(const std::string& text) {
  return experimentFromConfig(KeyValueConfig::parse(text));
}

/// The ConfigError message `text` fails with ("" when it parses).
std::string errorFor(const std::string& text) {
  try {
    (void)fromText(text);
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(ExperimentFromConfig, FallbacksWhenAbsent) {
  // An empty file sets nothing: every field keeps its default.
  const CliExperiment ex = fromText("# nothing set\n");
  EXPECT_EQ(ex.config, ExperimentConfig{});
  EXPECT_EQ(ex.graph, "paper");
  EXPECT_EQ(ex.chain_length, 4u);
  EXPECT_EQ(ex.schedulers, std::vector<SchedulerSpec>{parseScheduler("global")});
  EXPECT_TRUE(ex.output_csv.empty());
  // An empty scheduler list also falls back to the default.
  EXPECT_EQ(fromText("scheduler = , ,\n").schedulers,
            std::vector<SchedulerSpec>{parseScheduler("global")});
}

TEST(ExperimentFromConfig, RejectsBadConversions) {
  EXPECT_EQ(errorFor("workload.mean_rate = abc\n"),
            "config key 'workload.mean_rate' is not a number: 'abc'");
  EXPECT_EQ(errorFor("seed = 1.5\n"),
            "config key 'seed' is not an integer: '1.5'");
  EXPECT_EQ(errorFor("resilience.quarantine_probes = 7.5\n"),
            "config key 'resilience.quarantine_probes' is not an integer: "
            "'7.5'");
  EXPECT_EQ(errorFor("workload.infra_variability = maybe\n"),
            "config key 'workload.infra_variability' is not a boolean: "
            "'maybe'");
  // Of several bad values the first row in table order is reported,
  // whatever order the file lists them in.
  EXPECT_EQ(errorFor("forecast.hw_alpha = x\nseed = y\n"),
            "config key 'seed' is not an integer: 'y'");
}

TEST(ExperimentFromConfig, BoolSynonyms) {
  for (const char* yes : {"true", "yes", "ON", "1", "True"}) {
    EXPECT_TRUE(fromText(std::string("workload.infra_variability = ") + yes +
                         "\n")
                    .config.workload.infra_variability)
        << yes;
  }
  for (const char* no : {"false", "no", "Off", "0", "False"}) {
    EXPECT_FALSE(fromText(std::string("forecast.lookahead_alternates = ") +
                          no + "\n")
                     .config.heuristic.lookahead_alternates)
        << no;
  }
}

TEST(ExperimentFromConfig, ListsSplitOnCommas) {
  const CliExperiment ex =
      fromText("scheduler = global, local ,brute-force-static,\n");
  ASSERT_EQ(ex.schedulers.size(), 3u);
  EXPECT_EQ(ex.schedulers[0], parseScheduler("global"));
  EXPECT_EQ(ex.schedulers[1], parseScheduler("local"));
  EXPECT_EQ(ex.schedulers[2], parseScheduler("brute-force-static"));
}

TEST(ExperimentFromConfig, LastDuplicateWins) {
  EXPECT_EQ(fromText("seed = 1\nseed = 2\n").config.seed, 2u);
  EXPECT_EQ(fromText("scheduler = local\nscheduler = global\n").schedulers,
            std::vector<SchedulerSpec>{parseScheduler("global")});
  // Only the last value is converted: an earlier bad one is overwritten.
  EXPECT_EQ(fromText("seed = x\nseed = 3\n").config.seed, 3u);
}

TEST(ExperimentFromConfig, RejectsNonFiniteNumbersAndNegativeSeeds) {
  // These used to run: sigma = inf gave a -Infinity Theta, nan was
  // silently ignored, inf rates failed deep inside the run, and a
  // negative seed wrapped to 2^64 - 1.
  for (const std::string key :
       {"sigma", "workload.mean_rate", "elasticity.pe_state_mb",
        "workload.msg_size_kb", "horizon_h", "fault.vm_mtbf_h"}) {
    for (const std::string value : {"inf", "-inf", "nan", "infinity"}) {
      EXPECT_EQ(errorFor(key + " = " + value + "\n"),
                "config key '" + key + "' is not a finite number: '" + value +
                    "'");
    }
  }
  EXPECT_EQ(errorFor("seed = -1\n"),
            "config key 'seed' is out of range [0, 9223372036854775807]: "
            "'-1'");
  EXPECT_EQ(fromText("seed = 0\n").config.seed, 0u);
  EXPECT_EQ(fromText("seed = 9223372036854775807\n").config.seed,
            9223372036854775807u);
}

TEST(ExperimentFromConfig, AcceptsEverySchedulerName) {
  std::string list;
  for (const SchedulerSpec& spec : allSchedulers()) {
    list += (list.empty() ? "" : ", ") + schedulerName(spec);
  }
  const auto ex = experimentFromConfig(KeyValueConfig::parse(
      "scheduler = " + list + "\nforecast.model = naive\n"));
  EXPECT_EQ(ex.schedulers, allSchedulers());
}

TEST(ExperimentFromConfig, UnknownSchedulerListsTheValidNames) {
  for (const char* bad : {"quantum", "global-static-nodyn",
                          "brute-force-predictive", "Global"}) {
    try {
      (void)experimentFromConfig(
          KeyValueConfig::parse(std::string("scheduler = ") + bad + "\n"));
      FAIL() << "expected ConfigError for " << bad;
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("unknown scheduler name: '" + std::string(bad) +
                               "' (expected local, global, ",
                           0),
                0u)
          << what;
      for (const SchedulerSpec& spec : allSchedulers()) {
        EXPECT_NE(what.find(schedulerName(spec)), std::string::npos) << what;
      }
    }
  }
}

TEST(ExperimentFromConfig, UnknownCatalogListsTheValidNames) {
  for (const char* bad : {"gpu", "M1"}) {
    try {
      (void)experimentFromConfig(
          KeyValueConfig::parse(std::string("catalog = ") + bad + "\n"));
      FAIL() << "expected ConfigError for '" << bad << "'";
    } catch (const ConfigError& e) {
      EXPECT_EQ(std::string(e.what()), "unknown catalog: '" +
                                           std::string(bad) +
                                           "' (expected m1, m3, mixed)");
    }
  }
  // Every listed name validates and builds a non-empty catalog.
  ASSERT_EQ(catalogNames().size(), 3u);
  for (const std::string& name : catalogNames()) {
    const auto ex =
        experimentFromConfig(KeyValueConfig::parse("catalog = " + name + "\n"));
    EXPECT_EQ(ex.config.catalog, name);
    EXPECT_TRUE(ex.config.validationErrors().empty()) << name;
    EXPECT_GT(catalogByName(name).size(), 0u) << name;
  }
}

TEST(ExperimentFromConfig, AppliesValuesAndDefaults) {
  const auto kv = KeyValueConfig::parse(
      "graph = chain\n"
      "chain_length = 6\n"
      "scheduler = local, global\n"
      "workload.mean_rate = 25\n"
      "workload.profile = random-walk\n"
      "horizon_h = 3\n"
      "omega_target = 0.8\n"
      "fault.vm_mtbf_h = 12\n");
  const auto ex = experimentFromConfig(kv);
  EXPECT_EQ(ex.graph, "chain");
  EXPECT_EQ(ex.chain_length, 6u);
  ASSERT_EQ(ex.schedulers.size(), 2u);
  EXPECT_EQ(ex.schedulers[0], parseScheduler("local"));
  EXPECT_EQ(ex.schedulers[1], parseScheduler("global"));
  EXPECT_DOUBLE_EQ(ex.config.workload.mean_rate, 25.0);
  EXPECT_EQ(ex.config.workload.profile, ProfileKind::RandomWalk);
  EXPECT_DOUBLE_EQ(ex.config.horizon_s, 3.0 * kSecondsPerHour);
  EXPECT_DOUBLE_EQ(ex.config.omega_target, 0.8);
  EXPECT_DOUBLE_EQ(ex.config.faults.vm_mtbf_hours, 12.0);
  // Untouched defaults survive.
  EXPECT_DOUBLE_EQ(ex.config.interval_s, 60.0);
}

TEST(ExperimentFromConfig, DefaultsToGlobalScheduler) {
  const auto ex = experimentFromConfig(KeyValueConfig::parse("graph=paper\n"));
  ASSERT_EQ(ex.schedulers.size(), 1u);
  EXPECT_EQ(ex.schedulers[0], parseScheduler("global"));
}

TEST(ExperimentFromConfig, RejectsUnknownKeysGraphsProfiles) {
  EXPECT_THROW(
      (void)experimentFromConfig(KeyValueConfig::parse("grpah = paper\n")),
      PreconditionError);
  EXPECT_THROW(
      (void)experimentFromConfig(KeyValueConfig::parse("graph = torus\n")),
      PreconditionError);
  EXPECT_THROW((void)experimentFromConfig(
                   KeyValueConfig::parse("workload.profile = bursty\n")),
               PreconditionError);
  EXPECT_THROW((void)experimentFromConfig(
                   KeyValueConfig::parse("scheduler = alien\n")),
               PreconditionError);
}

TEST(ExperimentFromConfig, ValidatesResultingConfig) {
  EXPECT_THROW((void)experimentFromConfig(
                   KeyValueConfig::parse("workload.mean_rate = -3\n")),
               PreconditionError);
}

TEST(ExperimentFromConfig, UserMistakesThrowConfigError) {
  // All user-facing mistakes surface as ConfigError (a PreconditionError
  // carrying a clean one-line message for the CLI).
  EXPECT_THROW(
      (void)experimentFromConfig(KeyValueConfig::parse("no_such_key = 1\n")),
      ConfigError);
  EXPECT_THROW((void)experimentFromConfig(
                   KeyValueConfig::parse("workload.mean_rate = fast\n")),
               ConfigError);
  EXPECT_THROW(
      (void)experimentFromConfig(KeyValueConfig::parse("seed = 4.5\n")),
      ConfigError);
  EXPECT_THROW((void)experimentFromConfig(KeyValueConfig::parse(
                   "resilience.graceful_degradation = maybe\n")),
               ConfigError);
  try {
    (void)experimentFromConfig(KeyValueConfig::parse("no_such_key = 1\n"));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown config key: 'no_such_key'"),
              std::string::npos)
        << what;
    // No source-location noise in the user-facing message.
    EXPECT_EQ(what.find(".cpp"), std::string::npos) << what;
  }
}

TEST(ExperimentFromConfig, ParsesFaultAndResilienceKeys) {
  const auto ex = experimentFromConfig(KeyValueConfig::parse(
      "fault.vm_mtbf_h = 2.5\n"
      "fault.straggler_mtbf_h = 1.5\n"
      "fault.straggler_factor = 0.25\n"
      "fault.straggler_duration_s = 450\n"
      "fault.acq_failure_prob = 0.1\n"
      "fault.partition_mtbf_h = 3\n"
      "fault.partition_duration_s = 90\n"
      "resilience.quarantine_threshold = 0.55\n"
      "resilience.quarantine_probes = 4\n"
      "resilience.acq_max_retries = 2\n"
      "resilience.acq_backoff_s = 45\n"
      "resilience.graceful_degradation = true\n"));
  const auto& cfg = ex.config;
  EXPECT_DOUBLE_EQ(cfg.faults.vm_mtbf_hours, 2.5);
  EXPECT_DOUBLE_EQ(cfg.faults.straggler_mtbf_hours, 1.5);
  EXPECT_DOUBLE_EQ(cfg.faults.straggler_factor, 0.25);
  EXPECT_DOUBLE_EQ(cfg.faults.straggler_duration_s, 450.0);
  EXPECT_DOUBLE_EQ(cfg.faults.acquisition_failure_prob, 0.1);
  EXPECT_DOUBLE_EQ(cfg.faults.partition_mtbf_hours, 3.0);
  EXPECT_DOUBLE_EQ(cfg.faults.partition_duration_s, 90.0);
  EXPECT_DOUBLE_EQ(cfg.resilience.quarantine_threshold, 0.55);
  EXPECT_EQ(cfg.resilience.quarantine_probes, 4);
  EXPECT_EQ(cfg.resilience.acquisition_max_retries, 2);
  EXPECT_DOUBLE_EQ(cfg.resilience.acquisition_backoff_s, 45.0);
  EXPECT_TRUE(cfg.resilience.graceful_degradation);
}

TEST(ExperimentFromConfig, RejectsInvalidFaultKnobValues) {
  EXPECT_THROW((void)experimentFromConfig(
                   KeyValueConfig::parse("fault.straggler_mtbf_h = 1\n"
                                         "fault.straggler_factor = 1.5\n")),
               PreconditionError);
  EXPECT_THROW((void)experimentFromConfig(
                   KeyValueConfig::parse("fault.acq_failure_prob = 1.0\n")),
               PreconditionError);
}

TEST(ExperimentFromConfig, NestedKeysAreCanonical) {
  const auto ex = experimentFromConfig(
      KeyValueConfig::parse("workload.mean_rate = 12\n"
                            "workload.profile = wave\n"
                            "workload.infra_variability = true\n"
                            "fault.vm_mtbf_h = 2\n"
                            "resilience.quarantine_threshold = 0.5\n"));
  EXPECT_DOUBLE_EQ(ex.config.workload.mean_rate, 12.0);
  EXPECT_EQ(ex.config.workload.profile, ProfileKind::PeriodicWave);
  EXPECT_TRUE(ex.config.workload.infra_variability);
  EXPECT_DOUBLE_EQ(ex.config.faults.vm_mtbf_hours, 2.0);
  EXPECT_DOUBLE_EQ(ex.config.resilience.quarantine_threshold, 0.5);
}

TEST(ExperimentFromConfig, FormerFlatKeysAreUnknown) {
  // The flat spellings of the nested keys are gone: they fail like any
  // other typo, with one clean line naming the key — also next to the
  // nested spelling they used to alias.
  for (const char* text :
       {"mean_rate = 9\n", "mean_rate = 9\nworkload.mean_rate = 10\n"}) {
    try {
      (void)experimentFromConfig(KeyValueConfig::parse(text));
      FAIL() << "expected ConfigError for " << text;
    } catch (const ConfigError& e) {
      EXPECT_STREQ(e.what(), "unknown config key: 'mean_rate'");
    }
  }
}

TEST(ExperimentFromConfig, UnknownSchemaValueIsRejected) {
  // config_schema (warn | strict) is gone with the flat aliases it
  // governed: parsing is always strict, and the key itself is unknown.
  for (const char* value : {"warn", "strict", "pedantic"}) {
    try {
      (void)experimentFromConfig(KeyValueConfig::parse(
          std::string("config_schema = ") + value + "\n"));
      FAIL() << "expected ConfigError for " << value;
    } catch (const ConfigError& e) {
      EXPECT_STREQ(e.what(), "unknown config key: 'config_schema'");
    }
  }
}

TEST(ExperimentFromConfig, ParsesElasticityKeys) {
  const auto ex = experimentFromConfig(KeyValueConfig::parse(
      "elasticity.provisioning_delay_s = 180\n"
      "elasticity.provisioning_delay_per_core_s = 20\n"
      "elasticity.spot_discount = 0.7\n"
      "elasticity.spot_fraction = 0.5\n"
      "elasticity.spot_preemption_mtbf_h = 2\n"
      "elasticity.spot_notice_s = 90\n"
      "elasticity.pe_state_mb = 64\n"
      "elasticity.migration_bandwidth_mbps = 250\n"));
  const auto& el = ex.config.elasticity;
  EXPECT_DOUBLE_EQ(el.provisioning_delay_s, 180.0);
  EXPECT_DOUBLE_EQ(el.provisioning_delay_per_core_s, 20.0);
  EXPECT_DOUBLE_EQ(el.spot_discount, 0.7);
  EXPECT_DOUBLE_EQ(el.spot_fraction, 0.5);
  EXPECT_DOUBLE_EQ(el.spot_preemption_mtbf_h, 2.0);
  EXPECT_DOUBLE_EQ(el.spot_notice_s, 90.0);
  EXPECT_DOUBLE_EQ(el.pe_state_mb, 64.0);
  EXPECT_DOUBLE_EQ(el.migration_bandwidth_mbps, 250.0);
  EXPECT_TRUE(el.anyEnabled());
}

TEST(ExperimentFromConfig, ElasticityDefaultsAreAllOff) {
  const auto ex = experimentFromConfig(KeyValueConfig::parse("graph=paper\n"));
  EXPECT_FALSE(ex.config.elasticity.anyEnabled());
}

TEST(ExperimentFromConfig, SpotPreemptionWithoutATierIsAnError) {
  EXPECT_THROW((void)experimentFromConfig(KeyValueConfig::parse(
                   "elasticity.spot_preemption_mtbf_h = 2\n")),
               PreconditionError);
}

TEST(ExperimentFromConfig, ProvisioningDelayUnderBothPrefixesIsAnError) {
  // The lag has one spelling, elasticity.provisioning_delay_s; the old
  // fault.* one is an unknown key, alone or beside the canonical one.
  for (const char* text : {"fault.provisioning_delay_s = 60\n",
                           "fault.provisioning_delay_s = 60\n"
                           "elasticity.provisioning_delay_s = 60\n"}) {
    try {
      (void)experimentFromConfig(KeyValueConfig::parse(text));
      FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
      EXPECT_STREQ(e.what(),
                   "unknown config key: 'fault.provisioning_delay_s'");
    }
  }
}

TEST(ExperimentFromConfig, ElasticityOnTheEventBackendIsAnError) {
  // Migration cost works on both backends; delays and spot are fluid-only.
  EXPECT_NO_THROW((void)experimentFromConfig(KeyValueConfig::parse(
      "backend = event\n"
      "elasticity.pe_state_mb = 50\n")));
  EXPECT_THROW((void)experimentFromConfig(KeyValueConfig::parse(
                   "backend = event\n"
                   "elasticity.spot_discount = 0.7\n")),
               PreconditionError);
  EXPECT_THROW((void)experimentFromConfig(KeyValueConfig::parse(
                   "backend = event\n"
                   "elasticity.provisioning_delay_s = 60\n")),
               PreconditionError);
}

TEST(ElasticityConfigValidate, ReportsEveryBadKnob) {
  ExperimentConfig cfg;
  cfg.elasticity.provisioning_delay_s = -1.0;       // error 1
  cfg.elasticity.spot_discount = 1.0;               // error 2 (must be < 1)
  cfg.elasticity.spot_fraction = 1.5;               // error 3
  cfg.elasticity.pe_state_mb = -5.0;                // error 4
  cfg.elasticity.migration_bandwidth_mbps = 0.0;    // error 5
  const auto errors = cfg.validationErrors();
  EXPECT_EQ(errors.size(), 5u);
  bool saw_discount = false;
  for (const auto& e : errors) {
    saw_discount = saw_discount || e.find("spot discount") != std::string::npos;
  }
  EXPECT_TRUE(saw_discount);
}

TEST(ExperimentConfigValidate, ReportsAllErrorsAtOnce) {
  ExperimentConfig cfg;
  cfg.horizon_s = -1.0;                     // error 1
  cfg.interval_s = 0.0;                     // error 2
  cfg.omega_target = 1.5;                   // error 3
  cfg.workload.mean_rate = -2.0;            // error 4
  cfg.faults.straggler_factor = 1.5;        // error 5
  try {
    cfg.validate();
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("5 errors"), std::string::npos) << what;
    EXPECT_NE(what.find("horizon"), std::string::npos) << what;
    EXPECT_NE(what.find("interval"), std::string::npos) << what;
    EXPECT_NE(what.find("omega"), std::string::npos) << what;
    EXPECT_NE(what.find("rate"), std::string::npos) << what;
    EXPECT_NE(what.find("straggler"), std::string::npos) << what;
  }
  EXPECT_EQ(cfg.validationErrors().size(), 5u);
}

TEST(ExperimentConfigValidate, CleanConfigHasNoErrors) {
  const ExperimentConfig cfg;
  EXPECT_TRUE(cfg.validationErrors().empty());
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ExperimentFromConfig, ParsesForecastKeys) {
  const auto ex = experimentFromConfig(KeyValueConfig::parse(
      "scheduler = global-predictive\n"
      "forecast.model = holt-winters\n"
      "forecast.horizon_intervals = 8\n"
      "forecast.ewma_alpha = 0.5\n"
      "forecast.hw_alpha = 0.4\n"
      "forecast.hw_beta = 0.1\n"
      "forecast.hw_gamma = 0.2\n"
      "forecast.hw_season_intervals = 20\n"
      "forecast.preacquire_margin = 0.25\n"
      "forecast.lookahead_alternates = false\n"));
  const auto& fo = ex.config.forecast;
  EXPECT_EQ(fo.model, ForecastModel::HoltWinters);
  EXPECT_EQ(fo.horizon_intervals, 8);
  EXPECT_DOUBLE_EQ(fo.ewma_alpha, 0.5);
  EXPECT_DOUBLE_EQ(fo.hw_alpha, 0.4);
  EXPECT_DOUBLE_EQ(fo.hw_beta, 0.1);
  EXPECT_DOUBLE_EQ(fo.hw_gamma, 0.2);
  EXPECT_EQ(fo.hw_season_intervals, 20);
  EXPECT_TRUE(fo.enabled());
  // The two predictive-scheduling keys keep their forecast.* spelling but
  // set the heuristic's knobs.
  EXPECT_DOUBLE_EQ(ex.config.heuristic.preacquire_margin, 0.25);
  EXPECT_FALSE(ex.config.heuristic.lookahead_alternates);
}

TEST(ExperimentFromConfig, ForecastDefaultsOff) {
  const auto ex = experimentFromConfig(KeyValueConfig::parse("graph=paper\n"));
  EXPECT_FALSE(ex.config.forecast.enabled());
}

TEST(ExperimentFromConfig, UnknownForecastModelListsTheRegistry) {
  try {
    (void)experimentFromConfig(
        KeyValueConfig::parse("forecast.model = oracle\n"));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    // The message is generated from the registry, so it names every
    // model the binary actually knows.
    for (const char* name : {"off", "naive", "ewma", "holt-winters"}) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

TEST(ExperimentFromConfig, UnknownProfileListsTheRegistry) {
  try {
    (void)experimentFromConfig(
        KeyValueConfig::parse("workload.profile = sawtooth\n"));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    for (const char* name : {"constant", "wave", "random-walk", "spike"}) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

TEST(ExperimentFromConfig, PredictiveSchedulerNeedsForecastOn) {
  for (const std::string name : {"local-predictive", "global-predictive"}) {
    try {
      (void)experimentFromConfig(
          KeyValueConfig::parse("scheduler = global, " + name + "\n"));
      FAIL() << "expected ConfigError for " << name;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("'" + name + "' needs forecasting"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_NO_THROW((void)experimentFromConfig(
      KeyValueConfig::parse("scheduler = local-predictive\n"
                            "forecast.model = naive\n")));
}

TEST(ExperimentFromConfig, ForecastOnTheEventBackendParses) {
  // The interval loop forecasts for both backends.
  const auto ex = experimentFromConfig(
      KeyValueConfig::parse("backend = event\n"
                            "scheduler = global-predictive\n"
                            "forecast.model = holt-winters\n"));
  EXPECT_EQ(ex.config.backend, SimBackend::Event);
  EXPECT_TRUE(ex.config.forecast.enabled());
}

TEST(ExperimentFromConfig, ShippedExampleConfParses) {
  // Keep tools/example.conf working as documentation.
  const auto path = std::filesystem::path(__FILE__)
                        .parent_path()
                        .parent_path()
                        .parent_path() /
                    "tools" / "example.conf";
  const auto ex = experimentFromConfig(KeyValueConfig::load(path.string()));
  EXPECT_EQ(ex.graph, "paper");
  EXPECT_EQ(ex.schedulers.size(), 4u);
}

TEST(ExperimentFromConfig, ShippedExampleConfDocumentsEveryKey) {
  // tools/example.conf lists every key, commented out or not, and no key
  // the table does not have.
  std::ifstream in(std::filesystem::path(__FILE__)
                       .parent_path()
                       .parent_path()
                       .parent_path() /
                   "tools" / "example.conf");
  ASSERT_TRUE(in);
  std::set<std::string> documented;
  std::string line;
  while (std::getline(in, line)) {
    // A key line, live or commented out, has one word before its '='.
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    std::istringstream lhs(line.substr(0, eq));
    std::string word;
    std::string extra;
    lhs >> word;
    if (word == "#") lhs >> word;
    if (word.starts_with('#')) word.erase(0, 1);
    if (!word.empty() && !(lhs >> extra)) documented.insert(word);
  }
  const std::vector<std::string_view> names = configKeyNames();
  const std::set<std::string> keys(names.begin(), names.end());
  EXPECT_EQ(keys.size(), 50u);
  EXPECT_EQ(documented, keys);
}

TEST(ExperimentFromConfig, ChainLengthIsRangeChecked) {
  const auto parse = [](const std::string& length) {
    return experimentFromConfig(KeyValueConfig::parse(
        "graph = chain\nchain_length = " + length + "\n"));
  };
  EXPECT_EQ(parse("1").chain_length, 1u);
  EXPECT_EQ(parse(std::to_string(kMaxChainLength)).chain_length,
            static_cast<std::size_t>(kMaxChainLength));
  for (const std::string bad : {"0", "-1", "1025", "1000000000000"}) {
    try {
      (void)parse(bad);
      FAIL() << "expected ConfigError for chain_length " << bad;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("'chain_length'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ExperimentFromConfig, MessageSizeMustStayFiniteAfterScaling) {
  // 1e306 kB is finite, but 1e309 B is not; it used to run as inf.
  try {
    (void)experimentFromConfig(
        KeyValueConfig::parse("workload.msg_size_kb = 1e306\n"));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "message size must be finite");
  }
  EXPECT_NO_THROW((void)experimentFromConfig(
      KeyValueConfig::parse("workload.msg_size_kb = 1e300\n")));
}

TEST(ExperimentFromConfig, MeanRateHasACeiling) {
  // 1e300 used to pass validation and fail later inside the allocator
  // (and reach an out-of-range double-to-size_t cast on the way).
  const auto parse = [](const std::string& rate) {
    return experimentFromConfig(
        KeyValueConfig::parse("workload.mean_rate = " + rate + "\n"));
  };
  EXPECT_EQ(parse("1000").config.workload.mean_rate, kMaxMeanRate);
  for (const std::string bad : {"1000.5", "1e4", "1e300", "inf"}) {
    try {
      (void)parse(bad);
      FAIL() << "expected ConfigError for workload.mean_rate " << bad;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("workload.mean_rate"),
                std::string::npos)
          << e.what();
    }
  }
  try {
    (void)parse("1e300");
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "workload.mean_rate must be at most 1000 msgs/s");
  }
}

TEST(ExperimentFromConfig, HorizonMustBeFiniteAndBounded) {
  // An infinite horizon used to reach IntervalClock's double-to-integer
  // cast (undefined behaviour), and 1e6 h passed as 60,000,000 intervals.
  const auto parse = [](const std::string& horizon_h) {
    return experimentFromConfig(
        KeyValueConfig::parse("horizon_h = " + horizon_h + "\n"));
  };
  EXPECT_EQ(parse("24").config.horizon_s, 24.0 * kSecondsPerHour);
  for (const std::string bad : {"inf", "1e300", "1e6"}) {
    try {
      (void)parse(bad);
      FAIL() << "expected ConfigError for horizon_h " << bad;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("horizon"), std::string::npos)
          << e.what();
    }
  }
  // The cap counts intervals, so a shorter interval lowers it.
  EXPECT_THROW((void)experimentFromConfig(KeyValueConfig::parse(
                   "horizon_h = 24\ninterval_s = 0.5\n")),
               ConfigError);
}

/// Integer keys narrowed to `int`: a value outside int's range must fail
/// naming the key, not wrap to a small valid-looking number.
class IntegerConfigKey : public ::testing::TestWithParam<const char*> {};

TEST_P(IntegerConfigKey, OutOfIntRangeIsAConfigError) {
  const std::string key = GetParam();
  // 2^32 + 1 wraps to 1 and -(2^32 + 1) to -1 under a plain int cast.
  for (const char* value : {"4294967297", "-4294967297", "2147483648"}) {
    try {
      (void)experimentFromConfig(KeyValueConfig::parse(
          key + " = " + value + "\n"
                "resilience.quarantine_threshold = 0.5\n"));
      FAIL() << "expected ConfigError for " << key << " = " << value;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("'" + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(NarrowedKeys, IntegerConfigKey,
                         ::testing::Values("placement_racks",
                                           "resilience.quarantine_probes",
                                           "resilience.acq_max_retries",
                                           "forecast.horizon_intervals",
                                           "forecast.hw_season_intervals"));

}  // namespace
}  // namespace dds

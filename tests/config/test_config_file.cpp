#include "dds/config/config_file.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace dds {
namespace {

TEST(KeyValueConfig, ParsesPairsCommentsAndBlanks) {
  const auto kv = KeyValueConfig::parse(
      "# header comment\n"
      "mean_rate = 12.5\n"
      "\n"
      "graph= paper   # trailing comment\n"
      "infra_variability =true\n");
  EXPECT_TRUE(kv.has("mean_rate"));
  EXPECT_DOUBLE_EQ(kv.getDouble("mean_rate", 0.0), 12.5);
  EXPECT_EQ(kv.getString("graph", ""), "paper");
  EXPECT_TRUE(kv.getBool("infra_variability", false));
  EXPECT_FALSE(kv.has("absent"));
}

TEST(KeyValueConfig, FallbacksWhenAbsent) {
  const auto kv = KeyValueConfig::parse("a = 1\n");
  EXPECT_DOUBLE_EQ(kv.getDouble("missing", 7.5), 7.5);
  EXPECT_EQ(kv.getInt("missing", 3), 3);
  EXPECT_EQ(kv.getString("missing", "x"), "x");
  EXPECT_TRUE(kv.getBool("missing", true));
  EXPECT_TRUE(kv.getList("missing").empty());
}

TEST(KeyValueConfig, RejectsMalformedLines) {
  EXPECT_THROW((void)KeyValueConfig::parse("no equals sign\n"), IoError);
  EXPECT_THROW((void)KeyValueConfig::parse("= value\n"), IoError);
}

TEST(KeyValueConfig, RejectsBadConversions) {
  const auto kv = KeyValueConfig::parse(
      "num = abc\nint = 1.5\nflag = maybe\n");
  EXPECT_THROW((void)kv.getDouble("num", 0.0), PreconditionError);
  EXPECT_THROW((void)kv.getInt("int", 0), PreconditionError);
  EXPECT_THROW((void)kv.getBool("flag", false), PreconditionError);
}

TEST(KeyValueConfig, BoolSynonyms) {
  const auto kv = KeyValueConfig::parse(
      "a = yes\nb = ON\nc = 0\nd = False\n");
  EXPECT_TRUE(kv.getBool("a", false));
  EXPECT_TRUE(kv.getBool("b", false));
  EXPECT_FALSE(kv.getBool("c", true));
  EXPECT_FALSE(kv.getBool("d", true));
}

TEST(KeyValueConfig, ListsSplitOnCommas) {
  const auto kv = KeyValueConfig::parse("s = global, local ,brute-force-static\n");
  const auto items = kv.getList("s");
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0], "global");
  EXPECT_EQ(items[1], "local");
  EXPECT_EQ(items[2], "brute-force-static");
}

TEST(KeyValueConfig, LastDuplicateWins) {
  const auto kv = KeyValueConfig::parse("k = 1\nk = 2\n");
  EXPECT_EQ(kv.getInt("k", 0), 2);
}

TEST(KeyValueConfig, LoadMissingFileThrows) {
  EXPECT_THROW((void)KeyValueConfig::load("/no/such/file.conf"), IoError);
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
  EXPECT_DOUBLE_EQ(fo.preacquire_margin, 0.25);
  EXPECT_FALSE(fo.lookahead_alternates);
  EXPECT_TRUE(fo.enabled());
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

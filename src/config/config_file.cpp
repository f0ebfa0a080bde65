#include "dds/config/config_file.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>

#include "dds/common/error.hpp"
#include "dds/forecast/forecaster.hpp"
#include "dds/workload/rate_profile.hpp"

namespace dds {
namespace {

/// Comma-joined registry names, for "expected ..." error suffixes.
template <typename Kinds, typename NameFn>
std::string joinNames(const Kinds& kinds, NameFn name) {
  std::string out;
  for (const auto& kind : kinds) {
    if (!out.empty()) out += ", ";
    out += name(kind);
  }
  return out;
}

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

}  // namespace

KeyValueConfig KeyValueConfig::parse(const std::string& text) {
  KeyValueConfig cfg;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string trimmed = trim(line);
    if (trimmed.empty()) continue;
    const std::size_t eq = trimmed.find('=');
    if (eq == std::string::npos) {
      std::ostringstream os;
      os << "config line " << line_no << ": expected 'key = value'";
      throw IoError(os.str());
    }
    const std::string key = trim(trimmed.substr(0, eq));
    const std::string value = trim(trimmed.substr(eq + 1));
    if (key.empty()) {
      std::ostringstream os;
      os << "config line " << line_no << ": empty key";
      throw IoError(os.str());
    }
    cfg.values_[key] = value;
  }
  return cfg;
}

KeyValueConfig KeyValueConfig::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open config file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

bool KeyValueConfig::has(const std::string& key) const {
  return values_.contains(key);
}

void KeyValueConfig::set(const std::string& key, const std::string& value) {
  DDS_REQUIRE(!key.empty(), "config key must be non-empty");
  values_[key] = value;
}

std::string KeyValueConfig::getString(const std::string& key,
                                      const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double KeyValueConfig::getDouble(const std::string& key,
                                 double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  double out = 0.0;
  const auto& s = it->second;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ConfigError("config key '" + key + "' is not a number: '" + s +
                      "'");
  }
  return out;
}

std::int64_t KeyValueConfig::getInt(const std::string& key,
                                    std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::int64_t out = 0;
  const auto& s = it->second;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ConfigError("config key '" + key + "' is not an integer: '" + s +
                      "'");
  }
  return out;
}

int KeyValueConfig::getIntInRange(const std::string& key, int fallback,
                                  int lo, int hi) const {
  const std::int64_t v = getInt(key, fallback);
  if (v < lo || v > hi) {
    throw ConfigError("config key '" + key + "' is out of range [" +
                      std::to_string(lo) + ", " + std::to_string(hi) +
                      "]: '" + getString(key, "") + "'");
  }
  return static_cast<int>(v);
}

bool KeyValueConfig::getBool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::string v = it->second;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "true" || v == "yes" || v == "on" || v == "1") return true;
  if (v == "false" || v == "no" || v == "off" || v == "0") return false;
  throw ConfigError("config key '" + key + "' is not a boolean: '" +
                    it->second + "'");
}

std::vector<std::string> KeyValueConfig::getList(
    const std::string& key) const {
  std::vector<std::string> out;
  const auto it = values_.find(key);
  if (it == values_.end()) return out;
  std::istringstream in(it->second);
  std::string item;
  while (std::getline(in, item, ',')) {
    const std::string t = trim(item);
    if (!t.empty()) out.push_back(t);
  }
  return out;
}

std::vector<std::string> KeyValueConfig::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

namespace {

/// Every config key experimentFromConfig accepts, sorted — the vocabulary
/// config files and the job-spec API share. Built once: every campaign
/// job parses its config through here.
const std::vector<std::string>& canonicalConfigKeys() {
  static const std::vector<std::string> kKeys = [] {
    std::vector<std::string> keys = {
        "graph",        "chain_length",   "scheduler",
        "horizon_h",    "interval_s",     "seed",
        "omega_target", "epsilon",        "alternate_period",
        "resource_period", "sigma",       "output_csv",
        "catalog",      "placement_racks", "power_smoothing_alpha",
        "backend",      "max_queue_delay_s",
        "workload.mean_rate",
        "workload.profile",
        "workload.msg_size_kb",
        "workload.infra_variability",
        "fault.vm_mtbf_h",
        "fault.straggler_mtbf_h",
        "fault.straggler_factor",
        "fault.straggler_duration_s",
        "fault.acq_failure_prob",
        "fault.partition_mtbf_h",
        "fault.partition_duration_s",
        "resilience.quarantine_threshold",
        "resilience.quarantine_probes",
        "resilience.acq_max_retries",
        "resilience.acq_backoff_s",
        "resilience.graceful_degradation",
        "elasticity.provisioning_delay_s",
        "elasticity.provisioning_delay_per_core_s",
        "elasticity.spot_discount",
        "elasticity.spot_fraction",
        "elasticity.spot_preemption_mtbf_h",
        "elasticity.spot_notice_s",
        "elasticity.pe_state_mb",
        "elasticity.migration_bandwidth_mbps",
        "forecast.model",
        "forecast.horizon_intervals",
        "forecast.ewma_alpha",
        "forecast.hw_alpha",
        "forecast.hw_beta",
        "forecast.hw_gamma",
        "forecast.hw_season_intervals",
        "forecast.preacquire_margin",
        "forecast.lookahead_alternates"};
    std::sort(keys.begin(), keys.end());
    return keys;
  }();
  return kKeys;
}

}  // namespace

CliExperiment experimentFromConfig(const KeyValueConfig& kv) {
  const std::vector<std::string>& known_keys = canonicalConfigKeys();
  for (const auto& key : kv.keys()) {
    if (!std::binary_search(known_keys.begin(), known_keys.end(), key)) {
      throw ConfigError("unknown config key: '" + key + "'");
    }
  }

  CliExperiment ex;
  ex.graph = kv.getString("graph", "paper");
  if (ex.graph != "paper" && ex.graph != "chain" && ex.graph != "diamond") {
    throw ConfigError("unknown graph: '" + ex.graph +
                      "' (expected paper, chain or diamond)");
  }
  ex.chain_length = static_cast<std::size_t>(
      kv.getIntInRange("chain_length", 4, 1, kMaxChainLength));

  ExperimentConfig& cfg = ex.config;
  cfg.horizon_s = kv.getDouble("horizon_h", 1.0) * kSecondsPerHour;
  cfg.interval_s = kv.getDouble("interval_s", cfg.interval_s);
  cfg.seed = static_cast<std::uint64_t>(
      kv.getInt("seed", static_cast<std::int64_t>(cfg.seed)));
  cfg.omega_target = kv.getDouble("omega_target", cfg.omega_target);
  cfg.epsilon = kv.getDouble("epsilon", cfg.epsilon);
  cfg.alternate_period = kv.getInt("alternate_period", cfg.alternate_period);
  cfg.resource_period = kv.getInt("resource_period", cfg.resource_period);
  cfg.sigma_override = kv.getDouble("sigma", cfg.sigma_override);
  cfg.catalog = kv.getString("catalog", cfg.catalog);
  cfg.placement_racks =
      kv.getIntInRange("placement_racks", cfg.placement_racks);
  cfg.power_smoothing_alpha =
      kv.getDouble("power_smoothing_alpha", cfg.power_smoothing_alpha);
  cfg.max_queue_delay_s =
      kv.getDouble("max_queue_delay_s", cfg.max_queue_delay_s);

  WorkloadConfig& wl = cfg.workload;
  wl.mean_rate = kv.getDouble("workload.mean_rate", wl.mean_rate);
  wl.infra_variability =
      kv.getBool("workload.infra_variability", wl.infra_variability);
  wl.msg_size_bytes =
      kv.getDouble("workload.msg_size_kb", wl.msg_size_bytes / 1000.0) *
      1000.0;

  FaultConfig& fl = cfg.faults;
  fl.vm_mtbf_hours = kv.getDouble("fault.vm_mtbf_h", fl.vm_mtbf_hours);
  fl.straggler_mtbf_hours =
      kv.getDouble("fault.straggler_mtbf_h", fl.straggler_mtbf_hours);
  fl.straggler_factor =
      kv.getDouble("fault.straggler_factor", fl.straggler_factor);
  fl.straggler_duration_s =
      kv.getDouble("fault.straggler_duration_s", fl.straggler_duration_s);
  fl.acquisition_failure_prob =
      kv.getDouble("fault.acq_failure_prob", fl.acquisition_failure_prob);
  fl.partition_mtbf_hours =
      kv.getDouble("fault.partition_mtbf_h", fl.partition_mtbf_hours);
  fl.partition_duration_s =
      kv.getDouble("fault.partition_duration_s", fl.partition_duration_s);

  ElasticityConfig& el = cfg.elasticity;
  el.provisioning_delay_s = kv.getDouble("elasticity.provisioning_delay_s",
                                         el.provisioning_delay_s);
  el.provisioning_delay_per_core_s =
      kv.getDouble("elasticity.provisioning_delay_per_core_s",
                   el.provisioning_delay_per_core_s);
  el.spot_discount =
      kv.getDouble("elasticity.spot_discount", el.spot_discount);
  el.spot_fraction =
      kv.getDouble("elasticity.spot_fraction", el.spot_fraction);
  el.spot_preemption_mtbf_h = kv.getDouble(
      "elasticity.spot_preemption_mtbf_h", el.spot_preemption_mtbf_h);
  el.spot_notice_s = kv.getDouble("elasticity.spot_notice_s",
                                  el.spot_notice_s);
  el.pe_state_mb = kv.getDouble("elasticity.pe_state_mb", el.pe_state_mb);
  el.migration_bandwidth_mbps = kv.getDouble(
      "elasticity.migration_bandwidth_mbps", el.migration_bandwidth_mbps);

  ResilienceConfig& rl = cfg.resilience;
  rl.quarantine_threshold =
      kv.getDouble("resilience.quarantine_threshold", rl.quarantine_threshold);
  rl.quarantine_probes =
      kv.getIntInRange("resilience.quarantine_probes", rl.quarantine_probes);
  rl.acquisition_max_retries = kv.getIntInRange(
      "resilience.acq_max_retries", rl.acquisition_max_retries);
  rl.acquisition_backoff_s =
      kv.getDouble("resilience.acq_backoff_s", rl.acquisition_backoff_s);
  rl.graceful_degradation =
      kv.getBool("resilience.graceful_degradation", rl.graceful_degradation);

  ForecastConfig& fo = cfg.forecast;
  const std::string model =
      kv.getString("forecast.model", forecastModelName(fo.model));
  try {
    fo.model = parseForecastModel(model);
  } catch (const PreconditionError&) {
    throw ConfigError("unknown forecast model: '" + model +
                      "' (expected " +
                      joinNames(allForecastModels(), forecastModelName) +
                      ")");
  }
  fo.horizon_intervals =
      kv.getIntInRange("forecast.horizon_intervals", fo.horizon_intervals);
  fo.ewma_alpha = kv.getDouble("forecast.ewma_alpha", fo.ewma_alpha);
  fo.hw_alpha = kv.getDouble("forecast.hw_alpha", fo.hw_alpha);
  fo.hw_beta = kv.getDouble("forecast.hw_beta", fo.hw_beta);
  fo.hw_gamma = kv.getDouble("forecast.hw_gamma", fo.hw_gamma);
  fo.hw_season_intervals = kv.getIntInRange("forecast.hw_season_intervals",
                                            fo.hw_season_intervals);
  fo.preacquire_margin =
      kv.getDouble("forecast.preacquire_margin", fo.preacquire_margin);
  fo.lookahead_alternates =
      kv.getBool("forecast.lookahead_alternates", fo.lookahead_alternates);

  const std::string profile = kv.getString("workload.profile", "constant");
  try {
    wl.profile = parseProfileKind(profile);
  } catch (const PreconditionError&) {
    throw ConfigError("unknown profile: '" + profile + "' (expected " +
                      joinNames(allProfileKinds(), profileName) + ")");
  }

  const std::string backend = kv.getString("backend", "fluid");
  if (backend == "fluid") {
    cfg.backend = SimBackend::Fluid;
  } else if (backend == "event") {
    cfg.backend = SimBackend::Event;
  } else {
    throw ConfigError("unknown backend: '" + backend +
                      "' (expected fluid or event)");
  }

  auto names = kv.getList("scheduler");
  if (names.empty()) names = {"global"};
  for (const auto& name : names) {
    try {
      ex.schedulers.push_back(parseScheduler(name));
    } catch (const PreconditionError&) {
      throw ConfigError("unknown scheduler name: '" + name + "' (expected " +
                        joinNames(allSchedulers(), schedulerName) + ")");
    }
  }
  for (const SchedulerSpec& spec : ex.schedulers) {
    if (spec.mode == SchedulerSpec::Mode::Predictive &&
        !cfg.forecast.enabled()) {
      throw ConfigError(
          "scheduler '" + schedulerName(spec) +
          "' needs forecasting on; set forecast.model to one of " +
          joinNames(allForecastModels(), forecastModelName) +
          " (other than off)");
    }
  }
  ex.output_csv = kv.getString("output_csv", "");
  // Report every config mistake at once, as a ConfigError (one clean CLI
  // line rather than a precondition stack).
  const std::vector<std::string> errors = cfg.validationErrors();
  if (!errors.empty()) {
    std::ostringstream os;
    for (std::size_t i = 0; i < errors.size(); ++i) {
      os << (i ? "; " : "") << errors[i];
    }
    throw ConfigError(os.str());
  }
  return ex;
}

}  // namespace dds

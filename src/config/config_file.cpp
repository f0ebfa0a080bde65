#include "dds/config/config_file.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <type_traits>
#include <variant>

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

// The key table. Every config key is one row: its kind (how the value
// text converts), the setter that writes the converted value into the
// experiment, and where the key may be set. Config files and job specs
// both apply their settings through these rows; range checks stay in
// ExperimentConfig::validationErrors, which C++-built configs need too.

template <typename T>
using Setter = void (*)(CliExperiment&, T);

struct Number { Setter<double> set; };  // finite, from_chars syntax
struct Flag { Setter<bool> set; };  // true/yes/on/1, false/no/off/0, any case
struct Name { Setter<std::string> set; };  // registry names and free text
struct Integer { Setter<std::int64_t> set; std::int64_t lo, hi; };  // [lo, hi]
using Kind = std::variant<Number, Integer, Flag, Name>;

struct Row {
  std::string_view key;
  Kind kind;
  ConfigScope scope = ConfigScope::Everywhere;
};

/// The kind a plain field's type implies, setting the field `get` names.
/// Integers are bounded to the field's type: the seed, the one unsigned
/// field, to [0, 2^63 - 1].
template <typename Get>
constexpr Kind fieldKind(Get) {
  using T = std::remove_reference_t<std::invoke_result_t<Get, CliExperiment&>>;
  if constexpr (std::is_same_v<T, double>) {
    return Number{[](CliExperiment& ex, double v) { Get{}(ex) = v; }};
  } else if constexpr (std::is_same_v<T, bool>) {
    return Flag{[](CliExperiment& ex, bool v) { Get{}(ex) = v; }};
  } else if constexpr (std::is_same_v<T, std::string>) {
    return Name{[](CliExperiment& ex, std::string v) {
      Get{}(ex) = std::move(v);
    }};
  } else {
    using Limits = std::numeric_limits<std::conditional_t<
        std::is_unsigned_v<T>, std::int64_t, T>>;
    return Integer{[](CliExperiment& ex, std::int64_t v) {
                     Get{}(ex) = static_cast<T>(v);
                   },
                   std::is_unsigned_v<T> ? 0 : Limits::min(), Limits::max()};
  }
}

/// The kind of ExperimentConfig's field `FIELD`.
#define DDS_CONFIG(FIELD) \
  fieldKind([](CliExperiment& ex) -> auto& { return ex.config.FIELD; })

/// `name` through a registry's parser; an unknown name lists the registry.
template <typename T, typename Kinds, typename NameFn>
T fromRegistry(T (*parse)(const std::string&), const std::string& name,
               const std::string& what, const Kinds& kinds, NameFn name_of) {
  try {
    return parse(name);
  } catch (const PreconditionError&) {
    throw ConfigError("unknown " + what + ": '" + name + "' (expected " +
                      joinNames(kinds, name_of) + ")");
  }
}

void setGraph(CliExperiment& ex, std::string graph) {
  if (graph != "paper" && graph != "chain" && graph != "diamond") {
    throw ConfigError("unknown graph: '" + graph +
                      "' (expected paper, chain or diamond)");
  }
  ex.graph = std::move(graph);
}

void setForecastModel(CliExperiment& ex, std::string model) {
  ex.config.forecast.model =
      fromRegistry(parseForecastModel, model, "forecast model",
                   allForecastModels(), forecastModelName);
}

void setProfile(CliExperiment& ex, std::string profile) {
  ex.config.workload.profile = fromRegistry(
      parseProfileKind, profile, "profile", allProfileKinds(), profileName);
}

void setBackend(CliExperiment& ex, std::string backend) {
  if (backend != "fluid" && backend != "event") {
    throw ConfigError("unknown backend: '" + backend +
                      "' (expected fluid or event)");
  }
  ex.config.backend = backend == "fluid" ? SimBackend::Fluid
                                         : SimBackend::Event;
}

/// Comma-separated scheduler names, whitespace trimmed, empty items
/// dropped; an empty list leaves the default (global).
void setSchedulers(CliExperiment& ex, std::string list) {
  ex.schedulers.clear();
  std::istringstream in(list);
  std::string item;
  while (std::getline(in, item, ',')) {
    const std::string name = trim(item);
    if (name.empty()) continue;
    ex.schedulers.push_back(fromRegistry(parseScheduler, name,
                                         "scheduler name", allSchedulers(),
                                         schedulerName));
  }
}

/// Rows apply in this order, so the first of several bad values reported
/// is the same whichever front-end the settings came from.
const Row kRows[] = {
    {"graph", Name{setGraph}, ConfigScope::SpecTopLevel},
    {"chain_length",
     Integer{[](CliExperiment& ex, std::int64_t n) {
               ex.chain_length = static_cast<std::size_t>(n);
             },
             1, kMaxChainLength},
     ConfigScope::SpecTopLevel},
    {"horizon_h", Number{[](CliExperiment& ex, double h) {
       ex.config.horizon_s = h * kSecondsPerHour;
     }}},
    {"interval_s", DDS_CONFIG(interval_s)},
    {"seed", DDS_CONFIG(seed)},
    {"omega_target", DDS_CONFIG(omega_target)},
    {"epsilon", DDS_CONFIG(epsilon)},
    {"alternate_period", DDS_CONFIG(heuristic.alternate_period)},
    {"resource_period", DDS_CONFIG(heuristic.resource_period)},
    {"sigma", DDS_CONFIG(sigma_override)},
    {"catalog", DDS_CONFIG(catalog)},
    {"placement_racks", DDS_CONFIG(placement_racks)},
    {"power_smoothing_alpha", DDS_CONFIG(power_smoothing_alpha)},
    {"max_queue_delay_s", DDS_CONFIG(heuristic.max_queue_delay_s)},
    {"workload.mean_rate", DDS_CONFIG(workload.mean_rate)},
    {"workload.infra_variability", DDS_CONFIG(workload.infra_variability)},
    {"workload.msg_size_kb", Number{[](CliExperiment& ex, double kb) {
       ex.config.workload.msg_size_bytes = kb * 1000.0;
     }}},
    {"fault.vm_mtbf_h", DDS_CONFIG(faults.vm_mtbf_hours)},
    {"fault.straggler_mtbf_h", DDS_CONFIG(faults.straggler_mtbf_hours)},
    {"fault.straggler_factor", DDS_CONFIG(faults.straggler_factor)},
    {"fault.straggler_duration_s", DDS_CONFIG(faults.straggler_duration_s)},
    {"fault.acq_failure_prob", DDS_CONFIG(faults.acquisition_failure_prob)},
    {"fault.partition_mtbf_h", DDS_CONFIG(faults.partition_mtbf_hours)},
    {"fault.partition_duration_s", DDS_CONFIG(faults.partition_duration_s)},
    {"elasticity.provisioning_delay_s",
     DDS_CONFIG(elasticity.provisioning_delay_s)},
    {"elasticity.provisioning_delay_per_core_s",
     DDS_CONFIG(elasticity.provisioning_delay_per_core_s)},
    {"elasticity.spot_discount", DDS_CONFIG(elasticity.spot_discount)},
    {"elasticity.spot_fraction", DDS_CONFIG(elasticity.spot_fraction)},
    {"elasticity.spot_preemption_mtbf_h",
     DDS_CONFIG(elasticity.spot_preemption_mtbf_h)},
    {"elasticity.spot_notice_s", DDS_CONFIG(elasticity.spot_notice_s)},
    {"elasticity.pe_state_mb", DDS_CONFIG(elasticity.pe_state_mb)},
    {"elasticity.migration_bandwidth_mbps",
     DDS_CONFIG(elasticity.migration_bandwidth_mbps)},
    {"resilience.quarantine_threshold",
     DDS_CONFIG(resilience.quarantine_threshold)},
    {"resilience.quarantine_probes", DDS_CONFIG(resilience.quarantine_probes)},
    {"resilience.acq_max_retries",
     DDS_CONFIG(resilience.acquisition_max_retries)},
    {"resilience.acq_backoff_s", DDS_CONFIG(resilience.acquisition_backoff_s)},
    {"resilience.graceful_degradation",
     DDS_CONFIG(resilience.graceful_degradation)},
    {"forecast.model", Name{setForecastModel}},
    {"forecast.horizon_intervals", DDS_CONFIG(forecast.horizon_intervals)},
    {"forecast.ewma_alpha", DDS_CONFIG(forecast.ewma_alpha)},
    {"forecast.hw_alpha", DDS_CONFIG(forecast.hw_alpha)},
    {"forecast.hw_beta", DDS_CONFIG(forecast.hw_beta)},
    {"forecast.hw_gamma", DDS_CONFIG(forecast.hw_gamma)},
    {"forecast.hw_season_intervals", DDS_CONFIG(forecast.hw_season_intervals)},
    {"forecast.preacquire_margin", DDS_CONFIG(heuristic.preacquire_margin)},
    {"forecast.lookahead_alternates",
     DDS_CONFIG(heuristic.lookahead_alternates)},
    {"workload.profile", Name{setProfile}},
    {"backend", Name{setBackend}},
    {"scheduler", Name{setSchedulers}, ConfigScope::SpecTopLevel},
    {"output_csv",
     Name{[](CliExperiment& ex, std::string path) {
       ex.output_csv = std::move(path);
     }},
     ConfigScope::FileOnly},
};

#undef DDS_CONFIG

const Row* findRow(std::string_view key) {
  const auto it = std::find_if(std::begin(kRows), std::end(kRows),
                               [&](const Row& row) { return row.key == key; });
  return it == std::end(kRows) ? nullptr : &*it;
}

[[noreturn]] void badValue(std::string_view key, const std::string& what,
                           const std::string& text) {
  throw ConfigError("config key '" + std::string(key) + "' is " + what +
                    ": '" + text + "'");
}

/// from_chars over the whole of `text`.
template <typename T>
bool parseWhole(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

void apply(const Row& row, const std::string& text, CliExperiment& ex) {
  if (const auto* number = std::get_if<Number>(&row.kind)) {
    double v = 0.0;
    if (!parseWhole(text, v)) badValue(row.key, "not a number", text);
    if (!std::isfinite(v)) badValue(row.key, "not a finite number", text);
    number->set(ex, v);
  } else if (const auto* integer = std::get_if<Integer>(&row.kind)) {
    std::int64_t v = 0;
    if (!parseWhole(text, v)) badValue(row.key, "not an integer", text);
    if (v < integer->lo || v > integer->hi) {
      badValue(row.key,
               "out of range [" + std::to_string(integer->lo) + ", " +
                   std::to_string(integer->hi) + "]",
               text);
    }
    integer->set(ex, v);
  } else if (const auto* flag = std::get_if<Flag>(&row.kind)) {
    std::string v = text;
    std::transform(v.begin(), v.end(), v.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (v == "true" || v == "yes" || v == "on" || v == "1") {
      flag->set(ex, true);
    } else if (v == "false" || v == "no" || v == "off" || v == "0") {
      flag->set(ex, false);
    } else {
      badValue(row.key, "not a boolean", text);
    }
  } else {
    std::get<Name>(row.kind).set(ex, text);
  }
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
    cfg.entries_.emplace_back(key, value);
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

std::vector<std::string_view> configKeyNames() {
  std::vector<std::string_view> out;
  for (const Row& row : kRows) out.push_back(row.key);
  return out;
}

std::optional<ConfigScope> configKeyScope(std::string_view key) {
  const Row* row = findRow(key);
  return row == nullptr ? std::nullopt : std::optional(row->scope);
}

CliExperiment experimentFromEntries(std::span<const ConfigEntry> entries) {
  // The last value of each key, by row. Of several unknown keys the
  // alphabetically first is reported.
  std::array<const std::string*, std::size(kRows)> values{};
  const std::string* unknown = nullptr;
  for (const auto& [key, value] : entries) {
    if (const Row* row = findRow(key)) {
      values[static_cast<std::size_t>(row - kRows)] = &value;
    } else if (unknown == nullptr || key < *unknown) {
      unknown = &key;
    }
  }
  if (unknown != nullptr) {
    throw ConfigError("unknown config key: '" + *unknown + "'");
  }

  CliExperiment ex;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] != nullptr) apply(kRows[i], *values[i], ex);
  }
  if (ex.schedulers.empty()) ex.schedulers.push_back(parseScheduler("global"));
  for (const SchedulerSpec& spec : ex.schedulers) {
    if (spec.mode == SchedulerSpec::Mode::Predictive &&
        !ex.config.forecast.enabled()) {
      throw ConfigError(
          "scheduler '" + schedulerName(spec) +
          "' needs forecasting on; set forecast.model to one of " +
          joinNames(allForecastModels(), forecastModelName) +
          " (other than off)");
    }
  }
  // Report every config mistake at once, as a ConfigError (one clean CLI
  // line rather than a precondition stack).
  const std::vector<std::string> errors = ex.config.validationErrors();
  if (!errors.empty()) {
    std::ostringstream os;
    for (std::size_t i = 0; i < errors.size(); ++i) {
      os << (i ? "; " : "") << errors[i];
    }
    throw ConfigError(os.str());
  }
  return ex;
}

CliExperiment experimentFromConfig(const KeyValueConfig& kv) {
  return experimentFromEntries(kv.entries());
}

}  // namespace dds
